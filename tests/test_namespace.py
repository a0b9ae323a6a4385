"""The lazy package namespace: `import toricqh` loads only `errors`, and
every exported name or submodule is imported from its home module on first
access (PEP 562 module __getattr__)."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import toricqh

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("name", toricqh.__all__)
def test_exported_names_are_their_home_modules_objects(name):
    value = getattr(toricqh, name)
    if name == "errors":
        assert value is sys.modules["toricqh.errors"]
        return
    home = value.__module__
    assert home.startswith("toricqh.")
    assert value is getattr(sys.modules[home], name)


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from toricqh import *", namespace)
    assert set(toricqh.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(toricqh, name) for name in toricqh.__all__)
    assert set(toricqh.__all__) <= set(dir(toricqh))
    assert len(set(toricqh.__all__)) == len(toricqh.__all__)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        toricqh.no_such_name  # noqa: B018
    assert not hasattr(toricqh, "_no_such_private_name")
    with pytest.raises(ImportError):
        exec("from toricqh import no_such_name", {})


def test_a_fresh_import_loads_only_errors_and_resolves_the_rest_on_access():
    probe = (
        "import json, sys\n"
        "import toricqh\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('toricqh'))\n"
        "listed = set(toricqh.__all__) <= set(dir(toricqh))\n"
        "quantum = toricqh.quantum\n"
        "from toricqh import catalog\n"
        "fan = toricqh.Fan\n"
        "print(json.dumps({\n"
        "    'loaded': loaded,\n"
        "    'listed': listed,\n"
        "    'quantum': quantum is sys.modules['toricqh.quantum'],\n"
        "    'catalog': catalog is sys.modules['toricqh.catalog'],\n"
        "    'fan': fan is sys.modules['toricqh.fan'].Fan,\n"
        "    'lattice': toricqh.lattice is sys.modules['toricqh.lattice'],\n"
        "}))\n"
    )
    # -S keeps site out, which imports modules of its own
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "loaded": ["toricqh", "toricqh.errors"],
        "listed": True,
        "quantum": True,
        "catalog": True,
        "fan": True,
        "lattice": True,
    }
