"""The owner-return table, checked against every short input sequence.

A reference driver feeds :class:`OwnerReaction` every sequence of up to
eight inputs over {owner arrives, owner leaves, grace timer fires,
preempt}, in both Butler and checkpointing mode, and checks the paper's
rules after each step (PAPER.md §1 item 2): the foreign job never runs
while the owner is active, every armed grace timer fires or is
cancelled exactly once, nothing happens to a job once it has left, and a
preemption skips the grace.
"""

from collections import namedtuple

import pytest

from repro.core import job as jobstate
from repro.core import owner_reaction
from repro.core.owner_reaction import (
    REASON_OWNER_RETURNED,
    REASON_PRIORITY,
    OwnerReaction,
)

GRACE = 300.0
MAX_LENGTH = 8
INPUTS = ("arrive", "leave", "timer", "preempt")
#: The job after a vacate or kill: it has left the station.
GONE = "gone"


#: What the driver knows after a prefix of inputs: whether the owner is
#: active, the job's state, the armed grace timer's deadline (or None),
#: and how many timers were armed and how many fired or were cancelled.
Model = namedtuple("Model", "owner_active state deadline arms settled")
START = Model(False, owner_reaction.RUNNING, None, 0, 0)


def table_input(reaction, model, event, now):
    """The model after ``event`` (or None when it cannot happen) and the
    actions the table returned."""
    if event == "arrive" or event == "leave":
        active = event == "arrive"
        if model.owner_active == active:
            return None, []          # the owner's state did not change
        return (model._replace(owner_active=active),
                reaction.on_owner(model.state, active, now))
    if event == "timer":
        if model.deadline is None:
            return None, []          # only an armed timer fires
        fired = model._replace(deadline=None, settled=model.settled + 1)
        return fired, reaction.on_timer(model.state)
    return model, reaction.on_preempt(model.state)


def apply(model, actions, now):
    """Carry out ``actions`` as the host side does, checking each."""
    for index, action in enumerate(actions):
        verb = action[0]
        assert model.state != GONE, f"{action} after the job left"
        if verb == "suspend":
            assert model.state == owner_reaction.RUNNING
            model = model._replace(state=owner_reaction.SUSPENDED)
        elif verb == "resume":
            assert model.state == owner_reaction.SUSPENDED
            model = model._replace(state=owner_reaction.RUNNING)
        elif verb == "arm":
            assert model.deadline is None, "armed twice"
            assert action[1] == now + GRACE
            model = model._replace(deadline=action[1], arms=model.arms + 1)
        elif verb == "cancel":
            assert model.deadline is not None, "cancelled an unarmed timer"
            model = model._replace(deadline=None, settled=model.settled + 1)
        elif verb in ("vacate", "kill"):
            assert index == len(actions) - 1, f"actions follow {action}"
            model = model._replace(state=GONE)
        else:
            raise AssertionError(f"unknown action {action}")
    return model


def check(model, event, actions, before):
    assert not (model.owner_active
                and model.state == owner_reaction.RUNNING), \
        "foreign job running while the owner is active"
    assert model.arms == model.settled + (model.deadline is not None), \
        "an armed timer neither fired nor was cancelled exactly once"
    if model.state == GONE:
        assert model.deadline is None, "timer outstanding after the job left"
    if event == "preempt":
        assert all(action[0] != "arm" for action in actions)
        if before.state != GONE:
            assert actions[-1:] == [("vacate", REASON_PRIORITY)]
    if event == "timer" and before.state != GONE:
        assert actions == [("vacate", REASON_OWNER_RETURNED)]


def step(reaction, history, model, event):
    """Extend one sequence by ``event``; return the longer one's model."""
    sequence = history + (event,)
    now = 60.0 * len(sequence)
    after, actions = table_input(reaction, model, event, now)
    if after is None:
        return sequence, model
    try:
        after = apply(after, actions, now)
        check(after, event, actions, model)
    except AssertionError as exc:
        raise AssertionError(f"{sequence}: {exc}") from None
    return sequence, after


def explore(reaction):
    """Visit every sequence, shortest first; return how many there are."""
    level = [((), START)]
    visited = len(level)
    for _ in range(MAX_LENGTH):
        level = [step(reaction, history, model, event)
                 for history, model in level for event in INPUTS]
        visited += len(level)
    return visited


@pytest.mark.parametrize("kill", [False, True], ids=["checkpoint", "butler"])
def test_every_sequence_up_to_eight_inputs(kill):
    reaction = OwnerReaction(GRACE, kill_on_owner_return=kill)
    visited = explore(reaction)
    assert visited == sum(len(INPUTS) ** n for n in range(MAX_LENGTH + 1))
    assert visited == 87_381


def test_paper_rule():
    reaction = OwnerReaction(GRACE, kill_on_owner_return=False)
    running, suspended = owner_reaction.RUNNING, owner_reaction.SUSPENDED
    assert reaction.on_owner(running, True, 10.0) == [
        ("suspend",), ("arm", 10.0 + GRACE)]
    assert reaction.on_owner(suspended, False, 20.0) == [
        ("cancel",), ("resume",)]
    assert reaction.on_timer(suspended) == [
        ("vacate", REASON_OWNER_RETURNED)]
    assert reaction.on_preempt(running) == [("vacate", REASON_PRIORITY)]
    assert reaction.on_preempt(suspended) == [
        ("cancel",), ("vacate", REASON_PRIORITY)]
    butler = OwnerReaction(GRACE, kill_on_owner_return=True)
    assert butler.on_owner(running, True, 10.0) == [("kill",)]


def test_state_names_are_the_job_states():
    assert owner_reaction.RUNNING == jobstate.RUNNING
    assert owner_reaction.SUSPENDED == jobstate.SUSPENDED


def test_reasons_are_exported_from_core():
    import repro.core as core

    assert core.REASON_OWNER_RETURNED is REASON_OWNER_RETURNED
    assert core.REASON_PRIORITY is REASON_PRIORITY
