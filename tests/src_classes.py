"""Find the classes under ``src/`` that opt into a fast path.

The kernel differential tests check every class that declares a
quotient (a symmetric protocol, a process state key), so a new
declaration is checked without being listed by hand.
"""

import importlib
import pkgutil

import repro


def _import_every_module():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def subclasses_under_src(base, declares):
    """Every subclass of ``base`` defined in a ``repro`` module for which
    ``declares(cls)`` holds."""
    _import_every_module()
    found, stack = set(), [base]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if declares(cls) and cls.__module__.startswith("repro."):
                found.add(cls)
    return found
