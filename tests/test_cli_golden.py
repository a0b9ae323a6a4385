"""Byte-identity of the CLI on the shipped fans.

tests/golden/cli.json holds the stdout and exit code of a fixed set of
commands on every fans/*.json, plus a surface census.  A change that alters
any of them on purpose regenerates the file in the same change and says
why:

    PYTHONPATH=src python tests/test_cli_golden.py

_EXPRESSION_DIGESTS pins the expression parser the same way: one SHA-256
per fan and mode over the outcomes of 2,000 seeded random expressions.  A
change that alters an outcome on purpose records the new digests, computed
by _expression_digest, and says why.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import random
import sys

import pytest

from toricqh import catalog
from toricqh.cli import main, parse_expression

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
    # expressions: rational scalars, unary minus, juxtaposition, nesting and
    # strata; a parse failure exits 2 with nothing on stdout
    ("multiply", "1/2*D1", "2/2*D1"),
    ("multiply", "--", "-D1", "--D1"),
    ("multiply", "D1 D2", "((D1+[1]) * []) + 2*(D2) - [1,2]"),
    ("gw", "1/2*D1", "2/2*D2", "--", "-(D1 - D2)+[]", "{zero}"),
    ("multiply", "1/0", "D1"),
    ("multiply", "D1)", "D1"),
    ("multiply", "[1,", "D1"),
    ("multiply", "D", "D1"),
    ("multiply", "D\u0663", "D1"),
    # index lists may be written as a cone or a tuple
    ("giambelli", "{1,4}"),
    ("giambelli", "(1,4)"),
)


def cases() -> list[tuple[str, ...]]:
    out = []
    for path in sorted((ROOT / "fans").glob("*.json")):
        # {zero} stands for the zero curve class of the fan
        zero = ",".join("0" * len(json.loads(path.read_text(encoding="utf-8"))["rays"]))
        for command in FAN_COMMANDS:
            args = tuple(a.replace("{zero}", zero) for a in command[1:])
            for flag in ((), ("--json",)):
                out.append((command[0], "--fan", f"fans/{path.name}") + flag + args)
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


# Tokens the random expressions are drawn from: every token kind of the
# grammar, digits run together, whitespace (Unicode whitespace is skipped
# too), then, rarer, out-of-range and missing divisor numbers, a non-ASCII
# digit and stray characters.
_TOKENS = (
    "D1", "D2", "D3", "0", "1", "2", "12", "/", "*", "+", "-", "(", ")", "[", "]", ",", " ",
)
_RARE = ("D4", "D0", "D9", "D", "\t", "\u00a0", "\u2003", "\x1c", "\u0663", "x", "{")
_EXPRESSION_FANS = {
    "p2": catalog.projective_plane,
    "bl3p2": catalog.blowup_p2_three,
    "p3": lambda: catalog.projective_space(3),
}
# SHA-256 of the outcomes of _random_expressions() per (fan, mode); an
# outcome is the class with the type of every coefficient, or the type and
# message of the exception raised
_EXPRESSION_DIGESTS = {
    ("bl3p2", "quantum"): "d3021a3244aca65cef4c1e43976b8094cdc9e8d2b784af50bc234bb6c1fb323d",
    ("bl3p2", "classical"): "8affe2965e25571bb18e721394333a982901b7b5869860a5f1be6ae1bccdfed7",
    ("p2", "quantum"): "23c6428ec5addef4487d561a25c24c5e0ea46357ec5108d35fa2d87c3cff19d4",
    ("p2", "classical"): "73ce900eda2f99cb43711ec1679446aa86dba2f1139ed23d4a0cc51d58a0793a",
    ("p3", "quantum"): "cfe1c0b0e278130348ebf532435e86ba6b0c2ce80b7f3628c67ed0ed9db2ae37",
    ("p3", "classical"): "94cae07fa4129b4621c567e637cd1edc01c1f77a9c64435bf7c2232f15ab6f63",
}


def _grammatical(rng: random.Random, depth: int = 0) -> str:
    """A random expression of the grammar; brackets may hold any index."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            pick = rng.random()
            if pick < 0.2 and depth < 3:
                factors.append("(" + _grammatical(rng, depth + 1) + ")")
            elif pick < 0.4:
                factors.append("[" + ",".join(rng.sample("123", rng.randint(0, 3))) + "]")
            else:
                factors.append("D" + rng.choice("123"))
        scalar = rng.choice(("", "", "2", "-", "--", "1/2*", "2/2", "3 "))
        terms.append(scalar + rng.choice(("*", " ", "")).join(factors))
    return "".join(t + rng.choice(("+", " - ", "-")) for t in terms[:-1]) + terms[-1]


def _random_expressions(count: int = 2000) -> list[str]:
    """One input per parse failure, then half grammatical expressions and
    half token soup."""
    rng = random.Random(20000)
    out = ["1/0", "D1)", "[1,", "D", "D\u0663", "", "+D1", "(" * 101 + "D1" + ")" * 101]
    for k in range(count):
        if k % 2:
            out.append(_grammatical(rng))
        else:
            alphabet = _RARE if rng.random() < 0.2 else _TOKENS
            out.append("".join(rng.choices(_TOKENS, k=rng.randint(0, 8)) + [rng.choice(alphabet)]))
    return out


def _outcome(value) -> str:
    """A class as text, with the type of every coefficient."""
    parts = value.parts if hasattr(value, "parts") else {None: value}
    rows = []
    for beta, coh in parts.items():
        terms = sorted((i, type(c).__name__, str(c)) for i, c in coh.coords.items())
        rows.append((beta and beta.pairings, terms))
    return repr(sorted(rows))


def _expression_digest(fan, mode: str) -> str:
    digest = hashlib.sha256()
    for text in _random_expressions():
        try:
            outcome = _outcome(parse_expression(fan, text, mode))
        except Exception as exc:  # noqa: BLE001 - the exception is the outcome
            outcome = f"{type(exc).__name__}: {exc}"
        digest.update(f"{text!r} -> {outcome}\n".encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize("mode", ("quantum", "classical"))
@pytest.mark.parametrize("name", sorted(_EXPRESSION_FANS))
def test_random_expressions_evaluate_as_recorded(name, mode):
    fan = _EXPRESSION_FANS[name]()
    assert _expression_digest(fan, mode) == _EXPRESSION_DIGESTS[name, mode]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    table = {" ".join(c): run(c) for c in cases()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} cases to {GOLDEN.relative_to(ROOT)}", file=sys.stderr)
