"""Static guard over ``CondorConfig`` reads in the simulator source.

Every ``config.<name>`` the simulator reads must be a ``CondorConfig``
field, and every field must be read somewhere.  A deleted field still
read on a rare path (the lender's reclaim timer, the matchmaker loop)
would otherwise fail only when a chaos run reaches it; a field nobody
reads is a knob that turns nothing.

A read is an attribute access on a name or attribute called ``config``
(``config.poll_interval``, ``self.config.grace_period``), found by AST
inspection of every module under ``src/repro`` except ``service/``,
which does not use ``CondorConfig``.
"""

import ast
import dataclasses
import pathlib

from repro.core.config import CondorConfig

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

_EXEMPT_PREFIXES = ("service/",)


def _config_reads():
    """``{name: [file:line, ...]}`` for every ``config.<name>`` read."""
    reads = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith(_EXEMPT_PREFIXES):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            if ((isinstance(owner, ast.Name) and owner.id == "config")
                    or (isinstance(owner, ast.Attribute)
                        and owner.attr == "config")):
                reads.setdefault(node.attr, []).append(
                    f"{rel}:{node.lineno}")
    return reads


FIELDS = {field.name for field in dataclasses.fields(CondorConfig)}
READS = _config_reads()


def test_every_read_names_a_field():
    stale = {name: sites for name, sites in READS.items()
             if name not in FIELDS}
    assert not stale, f"reads of names CondorConfig lacks: {stale}"


def test_every_field_is_read():
    dead = sorted(FIELDS - set(READS))
    assert not dead, f"CondorConfig fields nothing reads: {dead}"
