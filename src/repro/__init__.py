"""Reproduction of "Condor - A Hunter of Idle Workstations" (ICDCS 1988).

Every package surface is lazy.  A package ``__init__`` holds one export
table, ``{name: leaf module}``, and :func:`lazy_exports` turns it into
``__all__`` and the PEP 562 ``__getattr__`` / ``__dir__`` hooks, so
``from repro.core import CondorSystem`` imports ``repro.core.condor`` and
what that needs — nothing else.  A module import costs its own
dependencies: a live agent does not load the simulator.
"""

import importlib
import sys


def lazy_exports(package, table):
    """``(__all__, __getattr__, __dir__)`` for ``package``'s export table.

    A name mapped to itself is the submodule of that name; any other name
    is the attribute of that name in its leaf module.  A resolved name is
    bound in the package, so the hook runs once per name.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name):
        leaf = table.get(name)
        if leaf is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{leaf}")
        value = module if leaf == name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *table})

    return list(table), __getattr__, __dir__
