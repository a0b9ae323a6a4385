"""Command-line front end.

All ray and divisor indices on the command line and in every rendering are
1-based; the library itself is 0-based.  Class expressions follow

    expr   := term ('+' term)*
    term   := scalar? factor ('*' factor)*
    factor := 'D'k | '[' k1,k2,... ']' | '(' expr ')'

with rational scalars ('2', '-1', '1/2'); 'Dk' is the k-th divisor class
and '[k1,...]' the class of the stratum of the cone spanned by those rays.
Every number is written in ASCII digits.  Parentheses nest at most
MAX_NESTING (100) deep; deeper input is an ExpressionError (exit 2).
Products are quantum products in `multiply` and classical cup products in
`gw`.

Exit codes: 0 success, 2 unusable input, 3 fan rejected, located nowhere
or failing an internal consistency check, 4 fan outside the tier a
computation needs, 5 precondition failure on otherwise valid data
(ineffective class, bad blow-down order, rootless tree, an effectivity
search that ran out of its node budget).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import catalog, cohomology, curves, fan as fan_mod, fano, quantum
from .cohomology import CohomologyClass
from .errors import (
    BlowDownInvalid,
    ExpressionError,
    FanNotAccepted,
    IndexOutOfRange,
    LocateFailure,
    NotACone,
    NotEffective,
    NotFano,
    NotInClass,
    NotInTier,
    PreconditionFailed,
    RingInconsistent,
    SearchBudgetExceeded,
)
from .fan import CurveClass, Fan
from .quantum import QuantumClass


# ---------------------------------------------------------------- rendering


def _one(based: Sequence[int]) -> list[int]:
    return [i + 1 for i in based]


def _cone_text(cone: Sequence[int]) -> str:
    return "{" + ",".join(str(i + 1) for i in cone) + "}"


def _curve_text(beta: CurveClass) -> str:
    return "(" + ",".join(str(b) for b in beta.pairings) + ")"


def _coh_terms(fan: Fan, cls: CohomologyClass) -> list[tuple[tuple[int, ...], Fraction]]:
    taus = cohomology.basis_tau(fan)
    return sorted(((taus[i], c) for i, c in cls.coords.items()), key=lambda t: (len(t[0]), t[0]))


def _coh_text(fan: Fan, cls: CohomologyClass) -> str:
    terms = _coh_terms(fan, cls)
    if not terms:
        return "0"
    bits = []
    for tau, coeff in terms:
        if not tau:
            bits.append(str(coeff))
        elif coeff == 1:
            bits.append("X" + _cone_text(tau))
        else:
            bits.append(f"{coeff}*X" + _cone_text(tau))
    return " + ".join(bits)


def _coh_json(fan: Fan, cls: CohomologyClass) -> list[dict]:
    return [
        {"tau": _one(tau), "coeff": str(coeff)} for tau, coeff in _coh_terms(fan, cls)
    ]


def _quantum_text(fan: Fan, qc: QuantumClass) -> str:
    if qc.is_zero():
        return "0"
    lines = []
    for beta in qc.curves():
        body = _coh_text(fan, qc.parts[beta])
        if beta.is_zero():
            lines.append(body)
        else:
            lines.append(f"q^{_curve_text(beta)} * ({body})")
    return "\n".join(lines)


def _quantum_json(fan: Fan, qc: QuantumClass) -> list[dict]:
    return [
        {
            "q": list(beta.pairings),
            "degree": beta.degree,
            "value": _coh_json(fan, qc.parts[beta]),
        }
        for beta in qc.curves()
    ]


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


class _Tok:
    def __init__(self, kind: str, value=None):
        self.kind = kind
        self.value = value


def _tokenize(text: str) -> list[_Tok]:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/()[],":
            out.append(_Tok(ch))
            i += 1
        elif ch == "D":
            j = i + 1
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            if j == i + 1:
                raise ExpressionError("'D' must be followed by a divisor number")
            out.append(_Tok("D", int(text[i + 1 : j])))
            i = j
        elif ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            out.append(_Tok("NUM", int(text[i:j])))
            i = j
        else:
            raise ExpressionError(f"unexpected character {ch!r} in expression")
    out.append(_Tok("END"))
    return out


class _QuantumContext:
    def __init__(self, fan: Fan):
        self.fan = fan

    def unit(self):
        return quantum.classical(self.fan, cohomology.unit_class(self.fan))

    def divisor(self, i: int):
        return quantum.reduce_monomial(self.fan, (i,))

    def stratum(self, key):
        return quantum.classical(self.fan, cohomology.stratum_class(self.fan, key))

    def mul(self, a, b):
        return quantum.quantum_product(self.fan, a, b)


class _ClassicalContext:
    def __init__(self, fan: Fan):
        self.fan = fan

    def unit(self):
        return cohomology.unit_class(self.fan)

    def divisor(self, i: int):
        return cohomology.stratum_class(self.fan, (i,))

    def stratum(self, key):
        return cohomology.stratum_class(self.fan, key)

    def mul(self, a, b):
        return cohomology.cup(self.fan, a, b)


# Deepest parenthesis nesting parse_expression accepts: each level costs three
# frames (atom, expr, term), far below the default recursion limit of 1000.
MAX_NESTING = 100


class _Parser:
    """Recursive descent over the expression grammar; values carry a scalar
    multiplier separately so pure numbers need no class until combined."""

    _STARTS = ("NUM", "D", "[", "(")

    def __init__(self, tokens: list[_Tok], ctx):
        self.toks = tokens
        self.pos = 0
        self.depth = 0  # open parentheses around the current position
        self.ctx = ctx

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def take(self, kind: Optional[str] = None) -> _Tok:
        tok = self.toks[self.pos]
        if kind is not None and tok.kind != kind:
            raise ExpressionError(f"expected {kind!r}, found {tok.kind!r}")
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        if self.peek().kind != "END":
            raise ExpressionError(f"trailing {self.peek().kind!r} in expression")
        return self.to_class(value)

    def to_class(self, value):
        scalar, obj = value
        if obj is None:
            obj = self.ctx.unit()
        return obj.scaled(scalar) if scalar != 1 else obj

    def expr(self):
        value = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            nxt = self.term()
            if op == "-":
                nxt = (-nxt[0], nxt[1])
            value = (Fraction(1), self.to_class(value) + self.to_class(nxt))
        return value

    def term(self):
        negate = False
        while self.peek().kind == "-":
            self.take()
            negate = not negate
        value = self.atom()
        while True:
            kind = self.peek().kind
            if kind == "*":
                self.take()
                value = self._mul(value, self.atom())
            elif kind in self._STARTS:
                value = self._mul(value, self.atom())
            else:
                break
        if negate:
            value = (-value[0], value[1])
        return value

    def _mul(self, a, b):
        sa, oa = a
        sb, ob = b
        if oa is None or ob is None:
            return (sa * sb, oa if ob is None else ob)
        return (sa * sb, self.ctx.mul(oa, ob))

    def atom(self):
        tok = self.peek()
        if tok.kind == "NUM":
            self.take()
            num = Fraction(tok.value)
            if self.peek().kind == "/":
                self.take()
                den = self.take("NUM").value
                if den == 0:
                    raise ExpressionError("division by zero")
                num = num / den
            return (num, None)
        if tok.kind == "D":
            self.take()
            k = tok.value
            if not 1 <= k <= self.ctx.fan.n_rays:
                raise IndexOutOfRange(f"no divisor D{k}")
            return (Fraction(1), self.ctx.divisor(k - 1))
        if tok.kind == "[":
            self.take()
            idx = []
            if self.peek().kind != "]":
                idx.append(self.take("NUM").value)
                while self.peek().kind == ",":
                    self.take()
                    idx.append(self.take("NUM").value)
            self.take("]")
            if any(k < 1 for k in idx):
                raise IndexOutOfRange("stratum indices are 1-based")
            key = tuple(sorted(k - 1 for k in idx))
            return (Fraction(1), self.ctx.stratum(key))
        if tok.kind == "(":
            self.take()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ExpressionError(f"parentheses nest deeper than {MAX_NESTING}")
            value = self.expr()
            self.take(")")
            self.depth -= 1
            return value
        raise ExpressionError(f"expression cannot start with {tok.kind!r}")


def parse_expression(fan: Fan, text: str, mode: str):
    """Evaluate an expression; mode 'quantum' or 'classical'."""
    ctx = _QuantumContext(fan) if mode == "quantum" else _ClassicalContext(fan)
    return _Parser(_tokenize(text), ctx).parse()


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


def _cone_arg(fan: Fan, text: str) -> tuple[int, ...]:
    vals = _parse_index_list(text)
    if any(v < 1 or v > fan.n_rays for v in vals):
        raise IndexOutOfRange(f"ray index out of range in {text!r}")
    return tuple(sorted(v - 1 for v in vals))


def _beta_arg(fan: Fan, text: str) -> CurveClass:
    vals = _parse_index_list(text)
    return fan_mod.curve_class(fan, vals)


# ---------------------------------------------------------------- commands


def _load(args) -> Fan:
    return fan_mod.load_fan(args.fan)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def cmd_validate(args) -> int:
    fan = _load(args)
    report = fan_mod.validate(fan)
    lines = ["accepted" if report.accepted else "rejected"]
    lines += [f"  - {p}" for p in report.problems]
    _emit(args, {"accepted": report.accepted, "problems": list(report.problems)}, "\n".join(lines))
    return 0 if report.accepted else 3


def cmd_classify(args) -> int:
    fan = _load(args)
    result = fano.classify(fan)
    lines = [f"tier: {result.tier.render()}"]
    rows = []
    for cert in result.certificates:
        rhs = _cone_text(cert.rhs_cone) if cert.rhs_cone else "{}"
        lines.append(
            f"  {_cone_text(cert.pset)}: coefficient sum {cert.coefficient_sum},"
            f" rhs {rhs}, rhs multiplicity {cert.rhs_multiplicity}"
        )
        rows.append(
            {
                "set": _one(cert.pset),
                "coefficient_sum": cert.coefficient_sum,
                "rhs": _one(cert.rhs_cone),
                "rhs_multiplicity": cert.rhs_multiplicity,
            }
        )
    _emit(args, {"tier": result.tier.render(), "relations": rows}, "\n".join(lines))
    return 0


def _relation_text(pd) -> str:
    lhs = "*".join(f"D{i + 1}" for i in pd.set)
    if pd.rhs_cone:
        rhs = "*".join(
            f"D{j + 1}" + (f"^{a}" if a > 1 else "")
            for j, a in zip(pd.rhs_cone, pd.rhs_coeffs)
        )
    else:
        rhs = "1"
    return f"{lhs} = q^{_curve_text(pd.cls)}" + (f" * {rhs}" if rhs != "1" else "")


def cmd_primitive(args) -> int:
    fan = _load(args)
    data = fan_mod.primitive_data(fan)
    lines = []
    rows = []
    for pd in data:
        lines.append(
            f"{_cone_text(pd.set)}: {_relation_text(pd)}"
            f" | class {_curve_text(pd.cls)} degree {pd.cls.degree}"
        )
        rows.append(
            {
                "set": _one(pd.set),
                "rhs": [[j + 1, a] for j, a in zip(pd.rhs_cone, pd.rhs_coeffs)],
                "class": list(pd.cls.pairings),
                "degree": pd.cls.degree,
            }
        )
    _emit(args, {"primitive_sets": rows}, "\n".join(lines) if lines else "none")
    return 0


def cmd_present(args) -> int:
    fan = _load(args)
    pres = quantum.presentation(fan)
    lines = [f"generators: {pres.n_generators}"]
    for row in pres.linear:
        body = " + ".join(f"{c}*D{i + 1}" for i, c in enumerate(row) if c)
        lines.append(f"  linear: {body} = 0")
    for pd in pres.deformed:
        lines.append(f"  deformed: {_relation_text(pd)}")
    payload = {
        "generators": pres.n_generators,
        "linear": [list(r) for r in pres.linear],
        "deformed": [
            {
                "set": _one(pd.set),
                "q": list(pd.cls.pairings),
                "rhs": [[j + 1, a] for j, a in zip(pd.rhs_cone, pd.rhs_coeffs)],
            }
            for pd in pres.deformed
        ],
    }
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_giambelli(args) -> int:
    fan = _load(args)
    sigma = _cone_arg(fan, args.cone)
    terms = quantum.giambelli(fan, sigma)
    lines = []
    rows = []
    for term in terms:
        mono = "*".join(f"D{i + 1}" for i in term.monomial) if term.monomial else "1"
        if term.curve.is_zero():
            lines.append(mono)
        else:
            lines.append(f"q^{_curve_text(term.curve)} * {mono}")
        rows.append(
            {
                "q": list(term.curve.pairings),
                "monomial": _one(term.monomial),
                "coeff": str(term.coefficient),
            }
        )
    _emit(args, {"cone": _one(sigma), "terms": rows}, "\n".join(lines))
    return 0


def cmd_multiply(args) -> int:
    fan = _load(args)
    left = parse_expression(fan, args.left, "quantum")
    right = parse_expression(fan, args.right, "quantum")
    result = quantum.quantum_product(fan, left, right)
    _emit(args, {"product": _quantum_json(fan, result)}, _quantum_text(fan, result))
    return 0


def cmd_gw(args) -> int:
    fan = _load(args)
    a = parse_expression(fan, args.a, "classical")
    b = parse_expression(fan, args.b, "classical")
    c = parse_expression(fan, args.c, "classical")
    beta = _beta_arg(fan, args.beta)
    value = quantum.gw3(fan, a, b, c, beta)
    _emit(args, {"value": str(value)}, str(value))
    return 0


def cmd_tower(args) -> int:
    fan = _load(args)
    order = None
    if args.order is not None:
        order = [v - 1 for v in _parse_index_list(args.order)]
        if any(v < 0 or v >= fan.n_rays for v in order):
            raise IndexOutOfRange(f"ray index out of range in order {args.order!r}")
    stages = fano.blow_down_tower(fan, order)
    lines = []
    rows = []
    for k, stage in enumerate(stages):
        tier = fano.classify(stage).tier.render()
        lines.append(f"stage {k}: {stage.n_rays} rays, tier {tier}")
        lines.append("  rays: " + " ".join(str(r) for r in stage.rays))
        lines.append("  cones: " + " ".join(_cone_text(c) for c in stage.max_cones))
        rows.append({**stage.to_json_dict(), "tier": tier})
    is_prod, dims = fano.is_product_of_projective_spaces(stages[-1])
    if is_prod:
        lines.append("terminal: product of projective spaces " + str(tuple(dims)))
    else:
        lines.append("terminal: not a product of projective spaces")
    payload = {"stages": rows, "product": {"is_product": is_prod, "dims": list(dims)}}
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_tree(args) -> int:
    fan = _load(args)
    beta = _beta_arg(fan, args.beta)
    trees = curves.tree_for_class(fan, beta)
    lines = [f"class {_curve_text(beta)} degree {beta.degree}"]
    rows = []
    for tree, count in trees:
        edges = ", ".join(f"{_cone_text(w)} x{m}" for w, m in tree.edges)
        lines.append(
            f"  {count} x tree to D{tree.target + 1} from {_cone_text(tree.root)}:"
            f" edges [{edges}] class {_curve_text(tree.cls)}"
        )
        rows.append(
            {
                "root": _one(tree.root),
                "target": tree.target + 1,
                "count": count,
                "edges": [{"wall": _one(w), "mult": m} for w, m in tree.edges],
                "class": list(tree.cls.pairings),
                "degree_verified": tree.degree_verified,
            }
        )
    total = curves.tree_total(trees) if trees else CurveClass((0,) * fan.n_rays)
    match = total == beta
    lines.append(f"total {_curve_text(total)} matches: {'yes' if match else 'no'}")
    _emit(args, {"trees": rows, "total": list(total.pairings), "matches": match}, "\n".join(lines))
    return 0


def cmd_census(args) -> int:
    reps = catalog.census(args.dim, args.max_rays)
    lines = [f"{len(reps)} equivalence classes"]
    rows = []
    for rep in reps:
        lines.append(
            f"  {rep.n_rays} rays: "
            + " ".join(str(r) for r in rep.rays)
            + " cones "
            + " ".join(_cone_text(c) for c in rep.max_cones)
        )
        rows.append(rep.to_json_dict())
    _emit(args, {"count": len(reps), "classes": rows}, "\n".join(lines))
    return 0


# ---------------------------------------------------------------- wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricqh",
        description="Exact quantum cohomology of well-behaved toric varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def fan_command(name: str, helptext: str):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--fan", required=True, help="path to a fan JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = fan_command("validate", "check that a fan file is accepted")
    p.set_defaults(func=cmd_validate)

    p = fan_command("classify", "certify the tier of the fan")
    p.set_defaults(func=cmd_classify)

    p = fan_command("primitive", "list primitive sets, relations, and classes")
    p.set_defaults(func=cmd_primitive)

    p = fan_command("present", "print the quantum ring presentation")
    p.set_defaults(func=cmd_present)

    p = fan_command("giambelli", "q-polynomial lift of a stratum class")
    p.add_argument("cone", help="cone as 1-based ray list, e.g. '1,4'")
    p.set_defaults(func=cmd_giambelli)

    p = fan_command("multiply", "quantum product of two class expressions")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_multiply)

    p = fan_command("gw", "three-point invariant of a curve class")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c")
    p.add_argument("beta", help="curve class as pairings 'b1,...,bm'")
    p.set_defaults(func=cmd_gw)

    p = fan_command("tower", "blow down repeatedly and report every stage")
    p.add_argument("--order", help="1-based ray indices to contract, e.g. '4,5,6'")
    p.set_defaults(func=cmd_tower)

    p = fan_command("tree", "curve-tree realization of a curve class")
    p.add_argument("beta", help="curve class as pairings 'b1,...,bm'")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("census", help="enumerate full-class surfaces up to equivalence")
    p.add_argument("dim", type=_ascii_int)
    p.add_argument("max_rays", type=_ascii_int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_census)

    return parser


_EXITS: tuple[tuple[tuple, int], ...] = (
    ((ExpressionError, NotACone, IndexOutOfRange, ValueError, OSError), 2),
    ((FanNotAccepted, LocateFailure, RingInconsistent), 3),
    ((NotFano, NotInClass, NotInTier), 4),
    ((NotEffective, PreconditionFailed, BlowDownInvalid, SearchBudgetExceeded), 5),
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
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
