"""Lazy package exports (PEP 562).

Every package ``__init__`` in :mod:`repro` re-exports the public names of
its submodules through a table ``{".submodule": ("Name", ...)}``.
:func:`lazy_exports` turns that table into the package's module-level
``__getattr__`` and ``__dir__``: a name's submodule is imported the first
time the name is read, and the value is then cached in the package's
globals, so later reads are plain attribute lookups.  Importing a
package therefore loads nothing but the package itself; a proof or a
CLI pays only for the modules it uses.

The key ``"."`` lists names that are themselves submodules (the
subpackages :mod:`repro` exports).

A function that shares its name with its own submodule (``repro.core.
freeze``, ``repro.chaos.circumvention_targets``) cannot be lazy: the
first import of the submodule, from anywhere, sets the package
attribute to the module.  Such a name is imported eagerly in its
``__init__`` instead, which also imports the submodule first.
"""

import sys
from importlib import import_module


def lazy_exports(package, table):
    """``(__getattr__, __dir__)`` for ``package``, serving ``table``'s names."""
    origin = {name: module for module, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        if module == ".":
            value = import_module(f".{name}", package)
        else:
            value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__
