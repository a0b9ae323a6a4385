"""Fano tiers, exceptional sets, and blow-down towers.

The tier ladder read off the primitive relations, for a relation
rho_1 + ... + rho_k = sum a_j rho'_j:

  Fano              every relation has sum(a_j) < k
  SubvarietiesFano  every relation has sum(a_j) <= 1
  FullClass         SubvarietiesFano, and no ray heads more than one relation

FullClass is the regime in which all the quantum formulas of this package
apply; every relation then reads rho_1 + ... + rho_k = rho_hat or = 0.

From the SubvarietiesFano tier on, every exceptional set is read off the
primitive relations (Batyrev, Tohoku Math. J. 43, 1991): the blow-down
data are the relations whose right side is one ray, and the other sets
follow from them by substitution, so no subset of the rays is searched.
"""

from __future__ import annotations

from collections import Counter
from enum import IntEnum
from typing import NamedTuple, Optional, Sequence

from . import fan as fan_mod
from . import lattice
from .errors import BlowDownInvalid, NotInClass, NotInTier
from .fan import Cone, CurveClass, Fan


class Tier(IntEnum):
    NOT_FANO = 0
    FANO = 1
    SUBVARIETIES_FANO = 2
    FULL_CLASS = 3

    def render(self) -> str:
        return {
            Tier.NOT_FANO: "NotFano",
            Tier.FANO: "Fano",
            Tier.SUBVARIETIES_FANO: "SubvarietiesFano",
            Tier.FULL_CLASS: "FullClass",
        }[self]


class RelationCertificate(NamedTuple):
    pset: Cone
    coefficient_sum: int
    rhs_cone: Cone
    rhs_multiplicity: int  # how many relations share this rhs ray (0 if rhs empty)


class ClassTier(NamedTuple):
    tier: Tier
    certificates: tuple[RelationCertificate, ...]


@fan_mod.per_fan
def classify(fan: Fan) -> ClassTier:
    """Certify the strongest tier the fan satisfies."""
    fan_mod.require_accepted(fan)
    pdata = fan_mod.primitive_data(fan)
    heads = Counter(pd.rhs_cone[0] for pd in pdata if pd.rhs_coeffs == (1,))
    certs = []
    for pd in pdata:
        mult = heads[pd.rhs_cone[0]] if pd.rhs_coeffs == (1,) else 0
        certs.append(RelationCertificate(pd.set, sum(pd.rhs_coeffs), pd.rhs_cone, mult))
    # the ladder's conditions nest, so the fan's tier is its weakest relation's
    return ClassTier(min(map(_relation_tier, certs), default=Tier.FULL_CLASS), tuple(certs))


def _relation_tier(cert: RelationCertificate) -> Tier:
    """The strongest tier one relation allows (module docstring)."""
    if cert.coefficient_sum >= len(cert.pset):
        return Tier.NOT_FANO
    if cert.coefficient_sum > 1:
        return Tier.FANO
    return Tier.SUBVARIETIES_FANO if cert.rhs_multiplicity > 1 else Tier.FULL_CLASS


def check_condition_iii(fan: Fan):
    """Coordinate test equivalent to the SubvarietiesFano tier.

    In the basis of every maximal cone, every ray generator must have all
    coordinates in [-1, 1] with at most one coordinate equal to +1.
    Returns (True, None) or (False, (max_cone, ray_index, coords)) with the
    first violation in canonical order.
    """
    fan_mod.require_accepted(fan)
    for cone in fan.max_cones:
        for idx in range(fan.n_rays):
            coords = fan_mod.coords_in_basis(fan, cone, fan.rays[idx])
            ones = sum(1 for c in coords if c == 1)
            if any(c < -1 or c > 1 for c in coords) or ones > 1:
                return False, (cone, idx, coords)
    return True, None


class ExceptionalData(NamedTuple):
    """Independent rays summing to the generator of another ray.

    cls pairs +1 with each member divisor and -1 with the exceptional one.
    """

    set: Cone
    exc: int
    cls: CurveClass


@fan_mod.per_fan
def exceptional_sets(fan: Fan) -> tuple[ExceptionalData, ...]:
    """All exceptional sets of the fan, sorted by (size, set).  Requires the
    SubvarietiesFano tier.

    They are the closure of the primitive exceptional sets under one step:
    a member h of a set found is replaced by the set P' of a relation
    sum P' = rho_h, and the result is kept when its rays, listed with
    repetition, are independent, which also rejects a P' that meets the
    rest or holds the exceptional ray.  The closure misses none.  An
    exceptional set S of e (independent, sum S = rho_e) spans no cone, or
    rho_e would be one of its members, so S contains a primitive set P.  On
    this tier P's relation reads sum P = 0, impossible as S is independent,
    or sum P = rho_h, where h is not in S, again by independence.  Then
    either h = e and S = P, or (S - P) + {h} is a smaller exceptional set
    of e, and the step with P rebuilds S from it.
    """
    prims = primitive_exceptional_sets(fan)
    found = {p.set: p for p in prims}
    todo = list(prims)
    while todo:
        s, e, _ = todo.pop()
        for p in prims:
            if p.exc not in s:
                continue
            cand = [i for i in s if i != p.exc] + list(p.set)
            key = tuple(sorted(cand))
            if key not in found and lattice.rank([fan.rays[i] for i in cand]) == len(cand):
                found[key] = ExceptionalData(key, e, fan_mod._relation_class(fan, key, ((e, 1),)))
                todo.append(found[key])
    return tuple(sorted(found.values(), key=lambda x: (len(x.set), x.set)))


def special_exceptional_sets(fan: Fan, sigma: Sequence[int]) -> tuple[ExceptionalData, ...]:
    """Exceptional sets special for the cone sigma: all members but one lie
    in sigma and so does the exceptional ray."""
    members = set(fan_mod._cone_key(fan, sigma))
    out = []
    for exc in exceptional_sets(fan):
        if exc.exc not in members:
            continue
        inside = sum(1 for i in exc.set if i in members)
        if inside >= len(exc.set) - 1:
            out.append(exc)
    return tuple(out)


def family_predicates(family: Sequence[ExceptionalData]) -> dict[str, bool]:
    """The three compatibility predicates for a family of exceptional sets.

    no_overlaps: no exceptional divisor of one member lies in another member
    (or in its own set).  no_cycles: the digraph with an edge S -> T whenever
    the exceptional divisor of T lies in S is acyclic; overlap-freeness
    implies cycle-freeness.  A member that is not an ExceptionalData is
    refused by name with ValueError.
    """
    excs = [fan_mod._strict_instance(e, ExceptionalData, "family member").exc for e in family]
    distinct = len(set(excs)) == len(excs)
    overlaps = any(e.exc in f.set for e in family for f in family)
    # peel off the members with no incoming edge (no remaining member's set
    # holds their exceptional ray): the digraph is acyclic exactly when that
    # empties the family
    rest = list(family)
    while True:
        kept = [e for e in rest if any(e.exc in f.set for f in rest)]
        if len(kept) == len(rest):
            break
        rest = kept
    return {
        "distinct_exc": distinct,
        "no_overlaps": not overlaps,
        "no_cycles": not rest,
    }


@fan_mod.per_fan
def primitive_exceptional_sets(fan: Fan) -> tuple[ExceptionalData, ...]:
    """Exceptional sets that are also primitive sets, i.e. blow-down data:
    the primitive relations, in order, whose right side is one ray with
    coefficient 1.  Needs the SubvarietiesFano tier.

    Such a set P is independent, so no rank test is needed.  A relation
    sum l_p rho_p = 0 on P with mixed signs would put one point in the
    relative interiors of the cones of P+ and P-, two faces of the fan; one
    of a single sign would put rho_e in the cone of some P - {x}, so e
    would lie in P and the other members of P would sum to zero.
    """
    pdata = fan_mod.primitive_data(fan)
    if classify(fan).tier < Tier.SUBVARIETIES_FANO:
        raise NotInTier("exceptional sets need the SubvarietiesFano tier")
    return tuple(
        ExceptionalData(pd.set, pd.rhs_cone[0], pd.cls) for pd in pdata if pd.rhs_coeffs == (1,)
    )


def blow_down(fan: Fan, exc: ExceptionalData) -> Fan:
    """Contract the divisor of exc.exc; defined for primitive exceptional
    data on a FullClass fan.  The exceptional ray disappears and each cone
    through it is rebuilt over the member rays."""
    if classify(fan).tier < Tier.FULL_CLASS:
        raise NotInClass("blow-down is defined on FullClass fans")
    if fan_mod._strict_instance(exc, ExceptionalData, "exc") not in primitive_exceptional_sets(fan):
        raise BlowDownInvalid(
            f"{tuple(i + 1 for i in exc.set)} -> {exc.exc + 1} is not primitive exceptional data"
        )
    drop = exc.exc  # the rays past it move down by one
    merged = (set(cone) - {drop} | set(exc.set) if drop in cone else cone for cone in fan.max_cones)
    new_cones = {tuple(sorted(i - (i > drop) for i in cone)) for cone in merged}
    result = Fan(fan.dim, fan.rays[:drop] + fan.rays[drop + 1:], tuple(sorted(new_cones)))
    report = fan_mod.validate(result)
    if not report.accepted:
        raise BlowDownInvalid("blow-down produced an invalid fan: " + "; ".join(report.problems))
    return result


def blow_down_tower(fan: Fan, order: Optional[Sequence[int]] = None) -> list[Fan]:
    """Blow down primitive exceptional divisors until none remain.

    order, if given, lists ray indices of the input fan to contract first,
    in order (each must head a primitive relation at its turn); afterwards,
    and by default, the exceptional ray with the smallest current index goes
    first.  Every intermediate fan must stay in FullClass.
    """
    order = fan_mod._ray_indices(fan, order or (), "ray index")
    fan_mod.require_accepted(fan)
    tower = [fan]
    pending = [fan.rays[i] for i in order]
    step = 0
    while True:
        current = tower[-1]
        if classify(current).tier < Tier.FULL_CLASS:
            raise BlowDownInvalid("intermediate fan left the FullClass tier")
        available = primitive_exceptional_sets(current)
        if step < len(pending):
            wanted = pending[step]
            chosen = next((exc for exc in available if current.rays[exc.exc] == wanted), None)
            if chosen is None:
                raise BlowDownInvalid(
                    f"ray {wanted} does not head a primitive exceptional relation at step {step}"
                )
            step += 1
        else:
            if not available:
                break
            chosen = min(available, key=lambda e: e.exc)
        tower.append(blow_down(current, chosen))
    return tower


def is_product_of_projective_spaces(fan: Fan) -> tuple[bool, tuple[int, ...]]:
    """Detect fans of products of projective spaces.

    Holds exactly when the primitive sets partition the rays and every
    primitive relation has empty right-hand side; the factor dimensions are
    one less than the part sizes.
    """
    fan_mod.require_accepted(fan)
    pdata = fan_mod.primitive_data(fan)
    seen: set[int] = set()
    dims = []
    for pd in pdata:
        if pd.rhs_cone != () or pd.rhs_coeffs != ():
            return False, ()
        if seen & set(pd.set):
            return False, ()
        seen.update(pd.set)
        dims.append(len(pd.set) - 1)
    if seen != set(range(fan.n_rays)):
        return False, ()
    return True, tuple(sorted(dims))
