"""The canonical encoder against its executable specification.

``encode_event`` takes shortcuts (one shared encoder, containers the C
encoder accepts as they are go to it untouched); the trace bytes must
not know.  The specification below is the encoder as it was before the
shortcuts, kept verbatim: ``_spec_jsonify`` + ``json.dumps``.
"""

import enum
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import TelemetryEvent, encode_event, jsonify

_JOB_ATTRS = ("id", "name", "user", "owner", "home", "demand_seconds")


def _spec_jsonify(value):
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, dict):
        return {str(key): _spec_jsonify(item)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_spec_jsonify(item) for item in value]
    if isinstance(value, (set, frozenset)):
        items = [_spec_jsonify(item) for item in value]
        items.sort(key=lambda item: json.dumps(
            item, sort_keys=True, separators=(",", ":")))
        return items
    summary = {}
    for attr in _JOB_ATTRS:
        item = getattr(value, attr, None)
        if item is not None and isinstance(item, (str, int, float, bool)):
            summary[attr] = item
    if summary:
        return summary
    return f"<{type(value).__name__}>"


def _spec_encode_event(event):
    record = {
        "seq": event.seq,
        "t": event.sim_time,
        "src": event.source,
        "kind": event.kind,
        "payload": _spec_jsonify(event.payload),
    }
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class _Colour(enum.IntEnum):
    RED = 1


class _Name(str):
    pass


class _JobLike:
    """Duck-typed job: any subset of the summary attributes."""

    def __init__(self, attrs):
        self.__dict__.update(attrs)


class _Opaque:
    pass


_atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),                              # huge ones included
    st.integers(min_value=10**30, max_value=10**40),
    st.floats(allow_nan=False),                 # ±0.0, ±inf, subnormals
    st.sampled_from([0.0, -0.0, 1e308, 5e-324]),
    st.text(),                                  # non-ASCII, surrogates out
    st.sampled_from(["ws-01", "żółć", "日本", " ", "\x00"]),
    st.just(_Colour.RED),
    st.builds(_Name, st.text(max_size=3)),
)

_job_likes = st.builds(
    _JobLike,
    st.dictionaries(
        st.sampled_from(_JOB_ATTRS + ("priority",)),
        st.one_of(st.none(), st.integers(), st.floats(allow_nan=False),
                  st.text(max_size=5), st.lists(st.integers(), max_size=2)),
        max_size=6),
)

#: Members a set can hold: hashable, and with equal members encoding
#: equally (``True`` and ``1`` are one member; which one is kept is the
#: set's business, and both encoders see the same set).
_hashables = st.recursive(
    st.one_of(_atoms, _job_likes, st.builds(_Opaque)),
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.frozensets(inner, max_size=3),
    ),
    max_leaves=6,
)

_keys = st.one_of(
    st.text(max_size=4),
    st.integers(min_value=-3, max_value=3),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.builds(_Name, st.text(max_size=2)),
    st.tuples(st.integers(), st.text(max_size=2)),
)

_values = st.recursive(
    st.one_of(_atoms, _job_likes, st.builds(_Opaque)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.dictionaries(_keys, inner, max_size=4),
        st.sets(_hashables, max_size=4),
        st.frozensets(_hashables, max_size=4),
    ),
    max_leaves=12,
)

_payloads = st.one_of(
    # what the simulator emits: keyword payloads, mostly flat
    st.dictionaries(st.text(min_size=1, max_size=8), _atoms, max_size=6),
    st.dictionaries(st.text(min_size=1, max_size=8), _values, max_size=5),
    st.dictionaries(_keys, _values, max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(seq=st.integers(min_value=0), t=st.floats(allow_nan=False),
       src=st.text(max_size=8), payload=_payloads)
def test_encode_event_equals_the_specification(seq, t, src, payload):
    event = TelemetryEvent(seq, t, src, "job_submitted", payload)
    assert encode_event(event) == _spec_encode_event(event)


@settings(max_examples=300, deadline=None)
@given(seq=st.integers(min_value=0),
       t=st.one_of(st.integers(), st.floats(),
                   st.sampled_from([float("nan"), -0.0, float("inf")])),
       src=st.one_of(st.text(max_size=8),
                     st.sampled_from(['"', 'ws-"01"', "\\", "żółć",
                                      "日本", "\u2028", "\x7f"])),
       payload=_payloads)
def test_encode_event_equals_the_specification_at_any_t_and_src(
        seq, t, src, payload):
    """The envelope is joined from per-value encodings, so every ``t``
    the encoder can meet (an int, NaN, -0.0) and a ``src`` that needs
    escaping must come out as the specification's sorted dict does."""
    event = TelemetryEvent(seq, t, src, "job_submitted", payload)
    assert encode_event(event) == _spec_encode_event(event)


@settings(max_examples=300, deadline=None)
@given(value=_values)
def test_jsonify_encodes_like_the_specification(value):
    def canonical(item):
        return json.dumps(item, sort_keys=True, separators=(",", ":"))

    assert canonical(jsonify(value)) == canonical(_spec_jsonify(value))


def test_flat_containers_are_taken_as_they_are():
    """The shortcut itself: no copy for what needs no conversion."""
    flat = {"category": "owner", "t0": 0.0, "t1": 3600.0, "booked": 12.5,
            "ok": True, "note": None}
    assert jsonify(flat) is flat
    stations = ["ws-01", "ws-02"]
    nested = {"lease_id": "lease-1", "stations": stations}
    assert jsonify(nested) == nested and jsonify(nested) is not nested
    assert jsonify(nested)["stations"] is stations
    pair = ("ws-01", 3)
    assert jsonify(pair) is pair
    # ... and only for it: a key that needs str() still gets it.
    assert jsonify({2: "a", True: "b", None: "c"}) == {
        "2": "a", "True": "b", "None": "c"}
