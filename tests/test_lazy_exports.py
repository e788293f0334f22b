"""Lazy package exports: a package import loads only what is used.

Every package ``__init__`` re-exports its submodules' names through a
:func:`repro._lazy.lazy_exports` table, so ``import repro`` loads one
package and a proof or CLI loads only the modules it reaches.  These
tests pin that down: what an import loads (checked in a fresh
interpreter, where ``sys.modules`` starts clean), that every exported
name still resolves to its defining module's object, and that every
module imports on its own, with no circular import that an eager
``__init__`` used to hide.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
PACKAGE = os.path.join(SRC, "repro")

CLIS = ("repro.chaos.__main__", "repro.service.__main__",
        "repro.circumvention.__main__")

#: Names that are also their own submodule's name, bound eagerly.
SHADOWING = (("repro.core", "freeze"),
             ("repro.chaos", "circumvention_targets"))


def _fresh(code):
    """Run ``code`` in a new interpreter that imports ``repro`` from src."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _packages():
    """``{package name: path of its __init__}`` for every repro package."""
    found = {}
    for directory, _dirs, files in os.walk(PACKAGE):
        if "__init__.py" in files:
            rel = os.path.relpath(directory, SRC)
            found[rel.replace(os.sep, ".")] = os.path.join(directory, "__init__.py")
    return dict(sorted(found.items()))


def _origins(path):
    """``{name: defining module}`` from an ``__init__``'s table and its
    eager imports, or None for a name that is itself a submodule."""
    package = os.path.relpath(os.path.dirname(path), SRC).replace(os.sep, ".")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    origins = {}
    for node in tree.body:
        if (isinstance(node, ast.ImportFrom) and node.level == 1
                and node.module != "_lazy"):
            for alias in node.names:
                origins[alias.name] = f"{package}.{node.module}"
        elif (isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Call)
              and getattr(node.value.func, "id", None) == "lazy_exports"):
            table = ast.literal_eval(node.value.args[1])
            for module, names in table.items():
                for name in names:
                    origins[name] = (None if module == "."
                                     else package + module)
    return origins


def _proofs_engines():
    """``ENGINES`` of perfbench's ``proofs`` workload, read from its source."""
    path = os.path.join(REPO, "perfbench", "proofs_workload.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "ENGINES"):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no ENGINES in {path}")


PACKAGES = _packages()
ENGINES = _proofs_engines()

#: Every ``repro`` module the proofs engines load: each proof module
#: imports at module level only what its search runs.
PROOFS_FOOTPRINT = [
    "repro", "repro._lazy",
    "repro.asynchronous", "repro.asynchronous.flp",
    "repro.asynchronous.network",
    "repro.consensus", "repro.consensus.floodset",
    "repro.consensus.lower_bounds", "repro.consensus.synchronous",
    "repro.core", "repro.core.budget", "repro.core.canonical",
    "repro.core.errors", "repro.core.freeze", "repro.core.packed",
    "repro.core.runtime",
    "repro.impossibility", "repro.impossibility.bivalence",
    "repro.impossibility.certificate",
    "repro.registers", "repro.registers.exhaustive",
    "repro.shared_memory", "repro.shared_memory.lower_bounds",
]


def test_every_package_init_exports_lazily():
    for name, path in PACKAGES.items():
        origins = _origins(path)
        exported = set(importlib.import_module(name).__all__) - {"__version__"}
        assert set(origins) == exported, name


def test_import_repro_loads_only_the_package():
    loaded = _fresh(
        "import sys, repro\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    )
    assert loaded.strip() == "['repro', 'repro._lazy']"


@pytest.mark.parametrize("modules", [ENGINES, CLIS], ids=["engines", "clis"])
def test_engines_and_clis_load_no_numpy_or_networkx(modules):
    loaded = _fresh(
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted({'numpy', 'networkx'} & set(sys.modules)))"
    )
    assert loaded.strip() == "[]"


def test_mutex_checkers_load_no_networkx():
    """The generic liveness checkers run on the fairness-cycle kernel in
    ``core.packed``: checking a system loads no graph library."""
    loaded = _fresh(
        "import sys\n"
        "from repro.shared_memory.mutex import peterson_system, "
        "tas_semaphore_system\n"
        "assert peterson_system().check_lockout_freedom('p0') is None\n"
        "tas = tas_semaphore_system(2)\n"
        "assert tas.check_deadlock_freedom('p0') is None\n"
        "assert tas.check_lockout_freedom('p0') is not None\n"
        "print(sorted({'numpy', 'networkx'} & set(sys.modules)))"
    )
    assert loaded.strip() == "[]"


def test_proofs_engines_load_only_their_footprint():
    loaded = _fresh(
        "import importlib, sys\n"
        f"for name in {ENGINES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    )
    assert loaded.strip() == repr(PROOFS_FOOTPRINT)


def test_a_proofs_pass_loads_no_further_module():
    """A tiny ``proofs`` pass runs on what its set-up imported: nothing
    that set-up left out is loaded by the first pass instead."""
    perfbench = os.path.join(REPO, "perfbench")
    loaded = _fresh(
        "import sys\n"
        f"sys.path.insert(0, {perfbench!r})\n"
        "from proofs_workload import ProofsJob\n"
        "job = ProofsJob(0, 'tiny', '.')\n"
        "before = set(sys.modules)\n"
        "result = job.run_pass()\n"
        "assert result.failures == [], result.failures\n"
        "print(sorted(m for m in set(sys.modules) - before\n"
        "             if m.split('.')[0] == 'repro'))"
    )
    assert loaded.strip() == "[]"


def test_proofs_load_no_hashing():
    """No proof takes a digest, so neither the engines' set-up nor a
    pass loads ``hashlib`` and the OpenSSL extension behind it:
    ``core.runtime`` imports it inside ``Trace.fingerprint`` and
    ``derive_seed`` only."""
    perfbench = os.path.join(REPO, "perfbench")
    loaded = _fresh(
        "import sys\n"
        f"sys.path.insert(0, {perfbench!r})\n"
        "from proofs_workload import ProofsJob\n"
        "job = ProofsJob(0, 'tiny', '.')\n"
        "result = job.run_pass()\n"
        "assert result.failures == [], result.failures\n"
        "print(sorted({'hashlib', '_hashlib', '_blake2'} & set(sys.modules)))"
    )
    assert loaded.strip() == "[]"


@pytest.mark.parametrize("package", list(PACKAGES))
def test_every_export_is_its_defining_modules_object(package):
    module = importlib.import_module(package)
    for name, origin in _origins(PACKAGES[package]).items():
        value = getattr(module, name)
        if origin is None:
            assert value is sys.modules[f"{package}.{name}"]
        else:
            assert value is getattr(importlib.import_module(origin), name)
    assert set(module.__all__) <= set(dir(module))
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.core.no_such_name
    assert not hasattr(repro, "no_such_name")


def test_shadowing_names_are_the_functions():
    for package, name in SHADOWING:
        module = importlib.import_module(package)
        assert callable(getattr(module, name))
        assert getattr(module, name) is getattr(
            sys.modules[f"{package}.{name}"], name
        )


@pytest.mark.parametrize("package, name", SHADOWING)
def test_shadowing_names_survive_importing_their_submodule_first(package, name):
    _fresh(
        "import importlib\n"
        f"submodule = importlib.import_module('{package}.{name}')\n"
        f"package = importlib.import_module('{package}')\n"
        f"assert getattr(package, '{name}') is submodule.{name}\n"
        f"assert callable(getattr(package, '{name}'))\n"
    )


def test_every_module_imports_on_its_own():
    names = sorted(
        info.name
        for info in pkgutil.walk_packages([PACKAGE], prefix="repro.")
    )
    assert len(names) > 90
    failures = _fresh(
        "import importlib, sys, traceback\n"
        f"for name in {names!r}:\n"
        "    for loaded in [m for m in sys.modules if m.split('.')[0] == 'repro']:\n"
        "        del sys.modules[loaded]\n"
        "    try:\n"
        "        importlib.import_module(name)\n"
        "    except Exception:\n"
        "        print(name, traceback.format_exc(limit=-1))\n"
    )
    assert failures == ""


def test_chaos_help_loads_only_the_package_and_its_cli():
    """``python -m repro.chaos --help`` parses its arguments before it
    imports the campaign, corpus and target selection, so it loads the
    ``repro.chaos`` package (whose eager ``circumvention_targets`` binding
    brings the roster) and the CLI module, and nothing else."""
    loaded = _fresh(
        "import contextlib, io, sys\n"
        "import repro.chaos\n"
        "before = set(sys.modules)\n"
        "from repro.chaos.__main__ import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        main(['--help'])\n"
        "    except SystemExit:\n"
        "        pass\n"
        "print(sorted(m for m in set(sys.modules) - before\n"
        "             if m.split('.')[0] == 'repro'))\n"
        "print(sorted(m for m in sys.modules if m.startswith(\n"
        "    ('repro.chaos.campaign', 'repro.chaos.corpus',\n"
        "     'repro.chaos.shrink', 'repro.service'))))\n"
    )
    assert loaded.splitlines() == ["['repro.chaos.__main__']", "[]"]
