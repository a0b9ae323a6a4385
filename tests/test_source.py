"""Rules on the source of src/toricqh, checked on every run of the suite.

No assert statement (python -O strips them), imports from the standard
library alone, no fractions in the integer-only core (lattice, quantum), no
dataclasses: a cold import of every submodule loads none of the modules
dataclasses would bring in, and no lookup of a fan's complex outside
validation.
"""

import ast
import os
import pathlib
import pkgutil
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "toricqh").glob("*.py"))
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize", "random"}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _imports(path):
    """(line, top-level module) per absolute import of a source file;
    relative imports stay inside toricqh."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            yield node.lineno, name.split(".")[0]


def test_no_assert_statements_in_src():
    # a check that python -O strips checks nothing there
    assert {"fan.py", "lattice.py", "quantum.py", "cli.py"} <= {path.name for path in SOURCES}
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_standard_library_only_in_src():
    found = [
        f"{path.name}:{line}: import {top}"
        for path in SOURCES
        for line, top in _imports(path)
        if top not in sys.stdlib_module_names and top != "toricqh"
    ]
    assert found == []


def test_integer_only_core_imports_no_fractions():
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        if path.name in ("lattice.py", "quantum.py")
        for line, top in _imports(path)
        if top == "fractions"
    ]
    assert found == []


def test_no_dataclasses_and_a_cold_import_loads_none_of_their_modules():
    found = [
        f"{path.name}:{line}" for path in SOURCES for line, top in _imports(path) if top == "dataclasses"
    ]
    assert found == []
    # every submodule, since the package namespace and the CLI import lazily;
    # -S keeps site out, which on some installs imports random by itself
    names = [module.name for module in pkgutil.iter_modules([str(SRC / "toricqh")])]
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "for name in sys.argv[1:]:\n"
        "    __import__('toricqh.' + name)\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *names], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {f"toricqh.{name}" for name in names} <= loaded
    assert loaded & HEAVY == set()


def test_only_validation_looks_the_complex_up():
    # validation keeps each fan's complex in the fan's record, which
    # fan.require_accepted hands out: no other module names the lookup, and
    # in fan no other function calls it
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "fan.py"
        for node in ast.walk(_tree(path))
        if (isinstance(node, ast.Attribute) and node.attr == "_complex")
        or (isinstance(node, ast.Name) and node.id == "_complex")
        or (isinstance(node, ast.alias) and node.name == "_complex")
    ]
    assert found == []
    callers = {
        func.name
        for func in ast.walk(_tree(SRC / "toricqh" / "fan.py"))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_complex"
    }
    assert callers == {"_validated"}
