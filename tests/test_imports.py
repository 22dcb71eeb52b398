"""The import layering: ``import tdmsd`` loads no submodule until a name is
used, and ``tdmsd compute`` loads none of the sweep, family or enumeration
code."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tdmsd

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _fresh_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_compute_loads_no_sweep_module():
    out = _fresh_python(
        "import io, json, sys\n"
        "from tdmsd import cli\n"
        "assert cli.main(['compute', '--input', 'p6', '--invariant', 'gamma_t'], io.StringIO()) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    loaded = set(json.loads(out))
    assert "tdmsd.subdivision" in loaded
    for name in ("tdmsd.verify", "tdmsd.enumeration", "tdmsd.family",
                 "tdmsd.characterization", "tdmsd.canonical", "concurrent.futures.process",
                 "dataclasses"):
        assert name not in loaded, name


def test_serial_sweep_loads_no_process_or_dataclass_machinery():
    out = _fresh_python(
        "import io, json, sys\n"
        "from tdmsd import cli\n"
        "from tdmsd.verify import run_verification\n"
        "assert cli.main(['compute', '--input', 'k4', '--invariant', 'msd_t'], io.StringIO()) == 0\n"
        "assert run_verification('msd-le-3', 4, jobs=1).ok\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    loaded = set(json.loads(out))
    assert "tdmsd.verify" in loaded
    for name in ("dataclasses", "inspect", "concurrent.futures", "multiprocessing", "logging"):
        assert name not in loaded, name


def test_subdivision_resolves_canonical_code_on_first_access():
    # the binding perfbench's traced units wrap is still there when asked for
    out = _fresh_python(
        "import sys\n"
        "from tdmsd import subdivision\n"
        "assert 'tdmsd.canonical' not in sys.modules\n"
        "from tdmsd import canonical\n"
        "print(subdivision.canonical_code is canonical.canonical_code)\n"
    )
    assert out.split() == ["True"]
    from tdmsd import subdivision

    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(subdivision, "no_such_name")


def test_every_submodule_loads_only_the_standard_library():
    # without site, only PYTHONPATH's src is importable beside the standard
    # library, so a third-party import fails here even when it is installed
    env = dict(os.environ, PYTHONPATH=_SRC)
    code = (
        "import json, pkgutil, sys\n"
        "before = {name.partition('.')[0] for name in sys.modules}\n"
        "import tdmsd\n"
        "names = [m.name for m in pkgutil.iter_modules(tdmsd.__path__)]\n"
        "for name in names:\n"
        "    __import__('tdmsd.' + name)\n"
        "after = {name.partition('.')[0] for name in sys.modules}\n"
        "print(json.dumps([names, sorted(after - before)]))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    names, loaded = json.loads(proc.stdout)
    assert len(names) == 13
    allowed = set(sys.stdlib_module_names) | set(sys.builtin_module_names) | {"tdmsd"}
    assert "tdmsd" in loaded
    assert [name for name in loaded if name not in allowed] == []


def test_package_import_loads_no_submodule():
    out = _fresh_python("import json, sys, tdmsd; print(json.dumps(sorted(sys.modules)))")
    assert not [name for name in json.loads(out) if name.startswith("tdmsd.")]


def test_every_public_name_resolves():
    assert len(tdmsd.__all__) == len(set(tdmsd.__all__)) == 60
    for name in tdmsd.__all__:
        assert getattr(tdmsd, name) is not None, name
    assert tdmsd.errors is sys.modules["tdmsd.errors"]
    assert tdmsd.gamma_t is sys.modules["tdmsd.domination"].gamma_t


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from tdmsd import *", namespace)
    assert set(tdmsd.__all__) <= set(namespace)


def test_dir_lists_all():
    assert set(tdmsd.__all__) <= set(dir(tdmsd))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(tdmsd, "no_such_name")
    assert not hasattr(tdmsd, "_private")
