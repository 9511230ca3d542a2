"""Package hubs that export lazily (``repro._lazy``) export what they did.

A hub is a package ``__init__`` that re-exports its submodules' names.
Each check runs in a fresh interpreter, so it sees the hub before any of
its names has been resolved: ``dir()`` must already list every name in
``__all__``, ``from <hub> import *`` must bind them all, each must be the
object its defining submodule holds, and an unknown name must raise
``AttributeError``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

LAZY_HUBS = ["repro", "repro.lang", "repro.runtime", "repro.perf", "repro.analysis"]

_CHECK = """
import importlib, inspect, sys, types

name = sys.argv[1]
hub = importlib.import_module(name)
problems = []
listed = set(dir(hub))
problems += [f"dir() omits {n}" for n in hub.__all__ if n not in listed]
star = {}
exec(f"from {name} import *", star)
problems += [f"import * omits {n}" for n in hub.__all__ if n not in star]


def defined_in_package(module):
    return module == name or module.startswith(name + ".")


for n in hub.__all__:
    value = getattr(hub, n)
    if isinstance(value, types.ModuleType):
        ok = value is sys.modules.get(f"{name}.{n}")
    elif inspect.isclass(value) or inspect.isfunction(value):
        home = value.__module__
        ok = defined_in_package(home) and getattr(sys.modules[home], n, None) is value
    else:
        ok = any(
            defined_in_package(module) and getattr(sys.modules[module], n, None) is value
            for module in list(sys.modules)
            if module != name
        )
    if not ok or star.get(n) is not value:
        problems.append(f"{n} is not the object its submodule defines")
try:
    hub.no_such_export
except AttributeError:
    pass
else:
    problems.append("an unknown name did not raise AttributeError")
print("\\n".join(problems))
sys.exit(1 if problems else 0)
"""


_SUBMODULE = """
import sys
import repro.runtime

assert "repro.runtime.machine" not in sys.modules
assert repro.runtime.machine is sys.modules["repro.runtime.machine"]
"""


def _run_fresh(code, *argv):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize("hub", LAZY_HUBS)
def test_hub_exports_resolve(hub):
    result = _run_fresh(_CHECK, hub)
    assert result.returncode == 0, result.stdout + result.stderr


def test_a_submodule_name_resolves_to_the_submodule():
    result = _run_fresh(_SUBMODULE)
    assert result.returncode == 0, result.stderr
