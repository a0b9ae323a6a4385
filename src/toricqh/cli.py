"""Command-line front end.

One table, _COMMANDS, names every subcommand with its handler, help text
and arguments; build_parser reads it, and main loads the fan of a command
that takes --fan once, then calls handler(fan, args).  main builds the
parser on its first call and reuses it for the rest of the process.  The
module imports only fan and errors; each handler imports the layer it runs
(fano, quantum, curves or catalog), so a fresh process compiles no other.

Each handler walks the library's result once, into the JSON payload that
--json prints, and renders its text output from that payload alone; text
that needs data the payload lacks, such as the class and degree in the
header of `tree`, takes it from the handler's own values, not from an added
payload key.

All ray and divisor indices on the command line and in every rendering are
1-based; the library itself is 0-based.  The CLI only parses and renders: it
shifts indices by one and leaves every check to the library, which words an
index out of range 1-based (fan._ray_indices).  Class expressions follow

    expr   := term ('+' term)*
    term   := scalar? factor ('*' factor)*
    factor := 'D'k | '[' k1,k2,... ']' | '(' expr ')'

with rational scalars ('2', '-1', '1/2'); '[k1,...]' is the class of the
stratum of the cone spanned by those rays, 'Dk' the divisor class [k] and a
bare number a multiple of the unit [].
Every number is written in ASCII digits.  Parentheses nest at most
MAX_NESTING (100) deep; deeper input is an ExpressionError (exit 2).
Products are quantum products in `multiply` and classical cup products in
`gw`.

Exit codes: 0 success, 2 unusable input, 3 fan rejected, located nowhere
or failing an internal consistency check, 4 fan outside the tier a
computation needs, 5 precondition failure on otherwise valid data
(ineffective class, bad blow-down order, rootless tree, an effectivity
search that ran out of its node budget), 141 stdout closed by its reader
(as a process killed by SIGPIPE exits in a shell; nothing on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from . import fan as fan_mod
from .errors import (
    BlowDownInvalid,
    ExpressionError,
    FanNotAccepted,
    IndexOutOfRange,
    LocateFailure,
    NotACone,
    NotEffective,
    NotFano,
    NotInTier,
    PreconditionFailed,
    RingInconsistent,
    SearchBudgetExceeded,
)
from .fan import CurveClass, Fan

if TYPE_CHECKING:
    from .quantum import QuantumClass


# ---------------------------------------------------------------- rendering


def _one(based: Sequence[int]) -> list[int]:
    return [i + 1 for i in based]


def _braces(ks: Sequence[int]) -> str:
    """A cone by its 1-based rays, '{1,2}'."""
    return "{" + ",".join(map(str, ks)) + "}"


def _parens(ks: Sequence[int]) -> str:
    """A curve class by its pairings, '(1,0,-1)'."""
    return "(" + ",".join(map(str, ks)) + ")"


def _quantum_json(fan: Fan, qc: QuantumClass) -> list[dict]:
    from . import cohomology

    taus = cohomology.basis_tau(fan)
    rows = []
    for beta in qc.curves():
        coords = qc.parts[beta].coords
        # basis terms by codimension, then by cone
        order = sorted(coords, key=lambda i: (len(taus[i]), taus[i]))
        value = [{"tau": _one(taus[i]), "coeff": str(coords[i])} for i in order]
        rows.append({"q": list(beta.pairings), "degree": beta.degree, "value": value})
    return rows


def _quantum_text(rows: list[dict]) -> str:
    """The text of _quantum_json rows: one line per curve class."""
    lines = []
    for row in rows:
        bits = []
        for term in row["value"]:
            tau, coeff = term["tau"], term["coeff"]
            if not tau:
                bits.append(coeff)
            elif coeff == "1":
                bits.append("X" + _braces(tau))
            else:
                bits.append(f"{coeff}*X" + _braces(tau))
        body = " + ".join(bits)
        lines.append(f"q^{_parens(row['q'])} * ({body})" if any(row["q"]) else body)
    return "\n".join(lines) or "0"


def _relation_row(pd) -> dict:
    return {
        "set": _one(pd.set),
        "rhs": [[j + 1, a] for j, a in zip(pd.rhs_cone, pd.rhs_coeffs)],
        "class": list(pd.cls.pairings),
        "degree": pd.cls.degree,
    }


def _relation_text(row: dict) -> str:
    lhs = "*".join(f"D{i}" for i in row["set"])
    rhs = "*".join(f"D{j}" + (f"^{a}" if a > 1 else "") for j, a in row["rhs"])
    return f"{lhs} = q^{_parens(row['class'])}" + (f" * {rhs}" if rhs else "")


def _fan_text(row: dict) -> tuple[str, str]:
    """The rays and the maximal cones of a Fan.to_json_dict row."""
    return " ".join(str(tuple(r)) for r in row["rays"]), " ".join(map(_braces, row["max_cones"]))


# ---------------------------------------------------------------- expressions


_DIGITS = frozenset("0123456789")


def _ascii_int(text: str) -> int:
    """An integer in ASCII digits with an optional leading '-'.

    int() alone would also read '+1', '1_0' and non-ASCII digits such as
    the Arabic-Indic ones; those are refused, not coerced.
    """
    body = text[1:] if text.startswith("-") else text
    if not body or not _DIGITS.issuperset(body):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer in ASCII digits")
    return int(text)


# One token per match: a divisor, a number, or any other character that is
# not whitespace (\S skips exactly what str.isspace calls whitespace).
# [0-9], unlike \d, is ASCII only.
_TOKEN = re.compile(r"D([0-9]*)|([0-9]+)|(\S)")


def _tokenize(text: str) -> list[tuple[str, Optional[int]]]:
    """(kind, value) pairs ending in ("END", None); kind is "D", "NUM" or
    the character of an operator or bracket."""
    out: list[tuple[str, Optional[int]]] = []
    for divisor, number, char in _TOKEN.findall(text):
        if char:
            if char not in "+-*/()[],":
                raise ExpressionError(f"unexpected character {char!r} in expression")
            out.append((char, None))
        elif number:
            out.append(("NUM", int(number)))
        elif divisor:
            out.append(("D", int(divisor)))
        else:
            raise ExpressionError("'D' must be followed by a divisor number")
    out.append(("END", None))
    return out


def _mode(mode: str):
    """(the class of a cone's stratum in the ring of mode, its product)."""
    from . import cohomology, quantum

    return {
        "quantum": (
            lambda fan, cone: quantum.classical(fan, cohomology.stratum_class(fan, cone)),
            quantum.quantum_product,
        ),
        "classical": (cohomology.stratum_class, cohomology.cup),
    }[mode]


# Deepest parenthesis nesting parse_expression accepts: each level costs three
# frames (atom, expr, term), far below the default recursion limit of 1000.
MAX_NESTING = 100


class _Parser:
    """Recursive descent over the expression grammar; values carry a scalar
    multiplier separately so pure numbers need no class until combined."""

    _STARTS = ("NUM", "D", "[", "(")

    def __init__(self, tokens: list[tuple[str, Optional[int]]], fan: Fan, mode: str):
        self.toks = tokens
        self.pos = 0
        self.depth = 0  # open parentheses around the current position
        self.fan = fan
        self.stratum_class, self.product = _mode(mode)

    def stratum(self, cone: tuple[int, ...]):
        return self.stratum_class(self.fan, cone)

    def peek(self) -> str:
        return self.toks[self.pos][0]

    def take(self, kind: Optional[str] = None) -> Optional[int]:
        found, value = self.toks[self.pos]
        if kind is not None and found != kind:
            raise ExpressionError(f"expected {kind!r}, found {found!r}")
        self.pos += 1
        return value

    def parse(self):
        value = self.expr()
        if self.peek() != "END":
            raise ExpressionError(f"trailing {self.peek()!r} in expression")
        return self.to_class(value)

    def to_class(self, value):
        scalar, obj = value
        if obj is None:
            obj = self.stratum(())
        return obj.scaled(scalar) if scalar != 1 else obj

    def expr(self):
        from fractions import Fraction

        value = self.term()
        while (op := self.peek()) in ("+", "-"):
            self.take()
            nxt = self.term()
            if op == "-":
                nxt = (-nxt[0], nxt[1])
            value = (Fraction(1), self.to_class(value) + self.to_class(nxt))
        return value

    def term(self):
        negate = False
        while self.peek() == "-":
            self.take()
            negate = not negate
        value = self.atom()
        while (kind := self.peek()) == "*" or kind in self._STARTS:  # or juxtaposition
            if kind == "*":
                self.take()
            value = self._mul(value, self.atom())
        if negate:
            value = (-value[0], value[1])
        return value

    def _mul(self, a, b):
        sa, oa = a
        sb, ob = b
        if oa is None or ob is None:
            return (sa * sb, oa if ob is None else ob)
        return (sa * sb, self.product(self.fan, oa, ob))

    def atom(self):
        from fractions import Fraction

        kind = self.peek()
        if kind not in self._STARTS:
            raise ExpressionError(f"expression cannot start with {kind!r}")
        value = self.take()
        if kind == "NUM":
            num = Fraction(value)
            if self.peek() == "/":
                self.take()
                den = self.take("NUM")
                if den == 0:
                    raise ExpressionError("division by zero")
                num = num / den
            return (num, None)
        if kind == "D":
            return (Fraction(1), self.stratum((value - 1,)))
        if kind == "[":
            idx = []
            if self.peek() != "]":
                idx.append(self.take("NUM"))
                while self.peek() == ",":
                    self.take()
                    idx.append(self.take("NUM"))
            self.take("]")
            return (Fraction(1), self.stratum(tuple(k - 1 for k in idx)))
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExpressionError(f"parentheses nest deeper than {MAX_NESTING}")
        value = self.expr()
        self.take(")")
        self.depth -= 1
        return value


def parse_expression(fan: Fan, text: str, mode: str):
    """Evaluate an expression; mode 'quantum' or 'classical'."""
    return _Parser(_tokenize(text), fan, mode).parse()


def _parse_index_list(text: str) -> list[int]:
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    if not body:
        return []
    try:
        return [_ascii_int(p.strip()) for p in body.split(",")]
    except argparse.ArgumentTypeError:
        raise ExpressionError(f"bad index list {text!r}") from None


# ---------------------------------------------------------------- commands


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def cmd_validate(fan: Fan, args) -> int:
    report = fan_mod.validate(fan)
    payload = {"accepted": report.accepted, "problems": list(report.problems)}
    lines = ["accepted" if payload["accepted"] else "rejected"]
    lines += [f"  - {p}" for p in payload["problems"]]
    _emit(args, payload, "\n".join(lines))
    return 0 if report.accepted else 3


def cmd_classify(fan: Fan, args) -> int:
    from . import fano

    result = fano.classify(fan)
    rows = [
        {
            "set": _one(cert.pset),
            "coefficient_sum": cert.coefficient_sum,
            "rhs": _one(cert.rhs_cone),
            "rhs_multiplicity": cert.rhs_multiplicity,
        }
        for cert in result.certificates
    ]
    payload = {"tier": result.tier.render(), "relations": rows}
    lines = [f"tier: {payload['tier']}"]
    lines += [
        f"  {_braces(r['set'])}: coefficient sum {r['coefficient_sum']},"
        f" rhs {_braces(r['rhs'])}, rhs multiplicity {r['rhs_multiplicity']}"
        for r in rows
    ]
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_primitive(fan: Fan, args) -> int:
    rows = [_relation_row(pd) for pd in fan_mod.primitive_data(fan)]
    lines = [
        f"{_braces(r['set'])}: {_relation_text(r)}"
        f" | class {_parens(r['class'])} degree {r['degree']}"
        for r in rows
    ]
    _emit(args, {"primitive_sets": rows}, "\n".join(lines) or "none")
    return 0


def cmd_present(fan: Fan, args) -> int:
    from . import quantum

    pres = quantum.presentation(fan)
    rows = [_relation_row(pd) for pd in pres.deformed]
    payload = {
        "generators": pres.n_generators,
        "linear": [list(r) for r in pres.linear],
        "deformed": [{"set": r["set"], "q": r["class"], "rhs": r["rhs"]} for r in rows],
    }
    lines = [f"generators: {payload['generators']}"]
    for row in payload["linear"]:
        body = " + ".join(f"{c}*D{i + 1}" for i, c in enumerate(row) if c)
        lines.append(f"  linear: {body} = 0")
    lines += [f"  deformed: {_relation_text(r)}" for r in rows]
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_giambelli(fan: Fan, args) -> int:
    from . import quantum

    sigma = tuple(sorted(v - 1 for v in _parse_index_list(args.cone)))
    rows = [
        {
            "q": list(term.curve.pairings),
            "monomial": _one(term.monomial),
            "coeff": str(term.coefficient),
        }
        for term in quantum.giambelli(fan, sigma)
    ]
    lines = []
    for row in rows:
        mono = "*".join(f"D{i}" for i in row["monomial"]) or "1"
        lines.append(f"q^{_parens(row['q'])} * {mono}" if any(row["q"]) else mono)
    _emit(args, {"cone": _one(sigma), "terms": rows}, "\n".join(lines))
    return 0


def cmd_multiply(fan: Fan, args) -> int:
    from . import quantum

    left = parse_expression(fan, args.left, "quantum")
    right = parse_expression(fan, args.right, "quantum")
    rows = _quantum_json(fan, quantum.quantum_product(fan, left, right))
    _emit(args, {"product": rows}, _quantum_text(rows))
    return 0


def cmd_gw(fan: Fan, args) -> int:
    from . import quantum

    a = parse_expression(fan, args.a, "classical")
    b = parse_expression(fan, args.b, "classical")
    c = parse_expression(fan, args.c, "classical")
    beta = fan_mod.curve_class(fan, _parse_index_list(args.beta))
    payload = {"value": str(quantum.gw3(fan, a, b, c, beta))}
    _emit(args, payload, payload["value"])
    return 0


def cmd_tower(fan: Fan, args) -> int:
    from . import fano

    order = None if args.order is None else [v - 1 for v in _parse_index_list(args.order)]
    stages = fano.blow_down_tower(fan, order)
    rows = [{**s.to_json_dict(), "tier": fano.classify(s).tier.render()} for s in stages]
    is_prod, dims = fano.is_product_of_projective_spaces(stages[-1])
    payload = {"stages": rows, "product": {"is_product": is_prod, "dims": list(dims)}}
    lines = []
    for k, row in enumerate(rows):
        rays, cones = _fan_text(row)
        lines.append(f"stage {k}: {len(row['rays'])} rays, tier {row['tier']}")
        lines.append("  rays: " + rays)
        lines.append("  cones: " + cones)
    product = payload["product"]
    if product["is_product"]:
        lines.append("terminal: product of projective spaces " + str(tuple(product["dims"])))
    else:
        lines.append("terminal: not a product of projective spaces")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_tree(fan: Fan, args) -> int:
    from . import curves

    beta = fan_mod.curve_class(fan, _parse_index_list(args.beta))
    trees = curves.tree_for_class(fan, beta)
    rows = [
        {
            "root": _one(tree.root),
            "target": tree.target + 1,
            "count": count,
            "edges": [{"wall": _one(w), "mult": m} for w, m in tree.edges],
            "class": list(tree.cls.pairings),
            "degree_verified": tree.degree_verified,
        }
        for tree, count in trees
    ]
    total = curves.tree_total(trees) if trees else CurveClass((0,) * fan.n_rays)
    payload = {"trees": rows, "total": list(total.pairings), "matches": total == beta}
    # the class asked for is not in the payload, so the header reads beta
    lines = [f"class {_parens(beta.pairings)} degree {beta.degree}"]
    for row in rows:
        edges = ", ".join(f"{_braces(e['wall'])} x{e['mult']}" for e in row["edges"])
        lines.append(
            f"  {row['count']} x tree to D{row['target']} from {_braces(row['root'])}:"
            f" edges [{edges}] class {_parens(row['class'])}"
        )
    matches = "yes" if payload["matches"] else "no"
    lines.append(f"total {_parens(payload['total'])} matches: {matches}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_census(_fan: None, args) -> int:
    from . import catalog

    rows = [rep.to_json_dict() for rep in catalog.census(args.dim, args.max_rays)]
    lines = [f"{len(rows)} equivalence classes"]
    for row in rows:
        rays, cones = _fan_text(row)
        lines.append(f"  {len(row['rays'])} rays: {rays} cones {cones}")
    _emit(args, {"count": len(rows), "classes": rows}, "\n".join(lines))
    return 0


# ---------------------------------------------------------------- wiring


_FAN_ARGS = (
    ("--fan", {"required": True, "help": "path to a fan JSON file"}),
    ("--json", {"action": "store_true", "help": "machine-readable output"}),
)
_BETA = ("beta", {"help": "curve class as pairings 'b1,...,bm'"})

# name -> (handler, help, (flag, add_argument options) pairs); a handler
# gets fan None when its command takes no --fan
_COMMANDS = {
    "validate": (cmd_validate, "check that a fan file is accepted", _FAN_ARGS),
    "classify": (cmd_classify, "certify the tier of the fan", _FAN_ARGS),
    "primitive": (cmd_primitive, "list primitive sets, relations, and classes", _FAN_ARGS),
    "present": (cmd_present, "print the quantum ring presentation", _FAN_ARGS),
    "giambelli": (cmd_giambelli, "q-polynomial lift of a stratum class",
                  _FAN_ARGS + (("cone", {"help": "cone as 1-based ray list, e.g. '1,4'"}),)),
    "multiply": (cmd_multiply, "quantum product of two class expressions",
                 _FAN_ARGS + (("left", {}), ("right", {}))),
    "gw": (cmd_gw, "three-point invariant of a curve class",
           _FAN_ARGS + (("a", {}), ("b", {}), ("c", {}), _BETA)),
    "tower": (cmd_tower, "blow down repeatedly and report every stage",
              _FAN_ARGS + (("--order", {"help": "1-based ray indices to contract, e.g. '4,5,6'"}),)),
    "tree": (cmd_tree, "curve-tree realization of a curve class", _FAN_ARGS + (_BETA,)),
    "census": (cmd_census, "enumerate full-class surfaces up to equivalence",
               (("dim", {"type": _ascii_int}), ("max_rays", {"type": _ascii_int}),
                ("--json", {"action": "store_true"}))),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricqh",
        description="Exact quantum cohomology of well-behaved toric varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=helptext)
        for flag, options in arguments:
            command.add_argument(flag, **options)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls, so one parser serves them all
    return build_parser()


_EXITS: tuple[tuple[tuple, int], ...] = (
    ((ExpressionError, NotACone, IndexOutOfRange, ValueError, OSError), 2),
    ((FanNotAccepted, LocateFailure, RingInconsistent), 3),
    ((NotFano, NotInTier), 4),
    ((NotEffective, PreconditionFailed, BlowDownInvalid, SearchBudgetExceeded), 5),
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = None
    try:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:  # --help, or unusable arguments
            code = int(exc.code or 0)
        else:
            fan = fan_mod.load_fan(args.fan) if "fan" in vars(args) else None
            code = _COMMANDS[args.command][0](fan, args)
        sys.stdout.flush()  # output that fit in the buffer meets a closed pipe here
        return code
    except BrokenPipeError:
        # exit as a process killed by SIGPIPE; stdout goes to devnull so that
        # the interpreter's final flush cannot fail (Python docs, "Note on SIGPIPE")
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError):  # io.UnsupportedOperation is an OSError
            return 141
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 141
    except Exception as exc:  # noqa: BLE001 - mapped to documented exit codes
        for types, code in _EXITS:
            if isinstance(exc, types):
                if getattr(args, "json", False):
                    print(
                        json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
                        file=sys.stderr,
                    )
                else:
                    print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
