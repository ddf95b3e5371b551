"""Static determinism lint over the simulation source tree.

Byte-identical replay — the property every golden-trace test leans on —
dies quietly the moment trace-affecting code consults an unseeded RNG,
the wall clock, or the iteration order of a ``set`` (which depends on
the per-process hash seed: a sweep runs the *same* logic in
*different* processes, so hash-order iteration diverges between a
spawned worker and an in-process run even with identical inputs).

Three rules, enforced by AST inspection of every module under
``src/repro``:

1. no module-level ``random.<fn>()`` calls — all randomness flows
   through the seeded streams in ``repro.sim.randomness`` (which may
   construct ``random.Random`` instances);
2. no wall-clock reads (``time.time``/``time.monotonic``/
   ``datetime.now``) outside the CLI and analysis drivers, which only
   report elapsed real time (``time.perf_counter`` is allowed: it feeds
   the metrics registry, never the trace);
3. no iteration over a value statically known to be a ``set`` — flag
   ``for``/comprehension iteration over set literals, set comprehensions,
   ``set()``/``frozenset()`` calls, locals assigned from them, and
   attributes assigned a set anywhere in the tree — unless the loop is
   explicitly order-insensitive and carries a ``# set-order-ok`` waiver
   comment on the offending line.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: The seeded-stream module itself wraps ``random.Random``.
_RNG_EXEMPT = {"sim/randomness.py"}

#: Drivers that measure elapsed wall time for reporting only, and the
#: live (non-simulated) service layer, which runs in real time.
_CLOCK_EXEMPT_PREFIXES = ("cli.py", "analysis/", "service/")

_SET_CALLS = {"set", "frozenset"}

_WAIVER = "# set-order-ok"


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        yield rel, path


def _is_set_expr(node, set_names, set_attrs):
    """Whether ``node`` is statically known to evaluate to a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _SET_CALLS):
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.Attribute) and node.attr in set_attrs:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        # Set algebra (union/intersection/difference) stays a set.
        return (_is_set_expr(node.left, set_names, set_attrs)
                or _is_set_expr(node.right, set_names, set_attrs))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("union", "intersection", "difference",
                                   "symmetric_difference")
            and _is_set_expr(node.func.value, set_names, set_attrs)):
        return True
    return False


def _collect_set_bindings(tree):
    """Names and attributes assigned a set-valued expression anywhere."""
    set_names = set()
    set_attrs = set()
    for _ in range(2):       # two passes so chained assigns propagate
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Assign, ast.AnnAssign,
                                     ast.AugAssign)):
                continue
            value = node.value
            if value is None or not _is_set_expr(value, set_names,
                                                 set_attrs):
                continue
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name):
                    set_names.add(target.id)
                elif isinstance(target, ast.Attribute):
                    set_attrs.add(target.attr)
    return set_names, set_attrs


def _iter_sites(tree):
    """Every (lineno, iterable-expression) the module loops over."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.lineno, node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                yield node.lineno, gen.iter


def test_no_unseeded_random_calls():
    offenders = []
    for rel, path in _modules():
        if rel in _RNG_EXEMPT:
            continue
        tree = ast.parse(path.read_text(), filename=rel)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "random"
                    and node.func.attr != "Random"):
                offenders.append(f"{rel}:{node.lineno} "
                                 f"random.{node.func.attr}()")
    assert not offenders, (
        "unseeded RNG in simulation code (use repro.sim.randomness "
        "streams):\n" + "\n".join(offenders))


def test_no_wall_clock_reads_in_simulation_code():
    banned = {("time", "time"), ("time", "monotonic"),
              ("time", "monotonic_ns"), ("time", "time_ns"),
              ("datetime", "now"), ("datetime", "utcnow")}
    offenders = []
    for rel, path in _modules():
        if rel.startswith(_CLOCK_EXEMPT_PREFIXES):
            continue
        tree = ast.parse(path.read_text(), filename=rel)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and (node.func.value.id,
                         node.func.attr) in banned):
                offenders.append(
                    f"{rel}:{node.lineno} "
                    f"{node.func.value.id}.{node.func.attr}()")
    assert not offenders, (
        "wall-clock read in simulation code (sim.now is the only clock "
        "the trace may see):\n" + "\n".join(offenders))


def test_no_iteration_over_sets():
    offenders = []
    for rel, path in _modules():
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, filename=rel)
        set_names, set_attrs = _collect_set_bindings(tree)
        for lineno, iter_expr in _iter_sites(tree):
            if not _is_set_expr(iter_expr, set_names, set_attrs):
                continue
            if any(_WAIVER in lines[n - 1]
                   for n in {lineno, iter_expr.lineno}):
                continue
            offenders.append(f"{rel}:{lineno} "
                             f"iterates {ast.dump(iter_expr)[:60]}")
    assert not offenders, (
        "iteration over a set: order depends on the per-process hash "
        "seed, which diverges between sweep workers and an in-process "
        "run.  Iterate sorted(...) (or a list/dict), or waive an "
        "order-insensitive loop with '# set-order-ok':\n"
        + "\n".join(offenders))
