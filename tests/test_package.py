import ast
import importlib
import pkgutil
import subprocess
import sys
import types

import pytest

import cullsq


def test_all_lists_the_public_names_and_no_module():
    submodules = [importlib.import_module(f"cullsq.{info.name}")
                  for info in pkgutil.iter_modules(cullsq.__path__)]
    for name in cullsq.__all__:
        obj = getattr(cullsq, name)
        assert not isinstance(obj, types.ModuleType), name
        assert any(getattr(module, name, None) is obj for module in submodules), name
    assert set(cullsq.__all__) <= set(dir(cullsq))
    with pytest.raises(AttributeError, match="no_such_name"):
        cullsq.no_such_name


def test_star_import_binds_the_same_objects():
    namespace = {}
    exec("from cullsq import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(cullsq.__all__)
    assert all(namespace[name] is getattr(cullsq, name) for name in cullsq.__all__)


def test_import_loads_no_numpy_and_no_computation_module():
    script = ("import sys, cullsq; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'cullsq')))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout) == ["cullsq", "cullsq._version"]
