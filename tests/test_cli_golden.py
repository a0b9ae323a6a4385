"""Byte-identity of the CLI on the shipped fans.

tests/golden/cli.json holds the stdout and exit code of a fixed set of
commands on every fans/*.json, plus a surface census.  A change that alters
any of them on purpose regenerates the file in the same change and says
why:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from toricqh.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli.json"
FAN_COMMANDS = (
    ("validate",),
    ("classify",),
    ("primitive",),
    ("present",),
    ("tower",),
    ("giambelli", "1,2"),
    ("multiply", "D1", "D2"),
    # index errors: the exit code pins which check answers first
    ("giambelli", "0,1"),
    ("giambelli", "1,99"),
    ("multiply", "D0", "D1"),
    ("multiply", "[0,1]", "D1"),
    ("multiply", "D99", "D1"),
    ("tower", "--order", "99"),
)


def cases() -> list[tuple[str, ...]]:
    out = []
    for path in sorted((ROOT / "fans").glob("*.json")):
        for command in FAN_COMMANDS:
            for flag in ((), ("--json",)):
                out.append((command[0], "--fan", f"fans/{path.name}") + flag + command[1:])
    out += [("census", "2", "8"), ("census", "2", "8", "--json")]
    return out


def run(argv: tuple[str, ...]) -> dict:
    # fan paths are relative to the repository root
    argv = tuple(str(ROOT / a) if a.startswith("fans/") else a for a in argv)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"exit": code, "stdout": stdout.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(" ".join(c) for c in cases())


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_cli_output_is_byte_identical(golden, argv):
    assert run(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    table = {" ".join(c): run(c) for c in cases()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} cases to {GOLDEN.relative_to(ROOT)}", file=sys.stderr)
