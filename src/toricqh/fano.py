"""Fano tiers, exceptional sets, and blow-down towers.

The tier ladder read off the primitive relations, for a relation
rho_1 + ... + rho_k = sum a_j rho'_j:

  Fano              every relation has sum(a_j) < k
  SubvarietiesFano  every relation has sum(a_j) <= 1
  FullClass         SubvarietiesFano, and no ray heads more than one relation

FullClass is the regime in which all the quantum formulas of this package
apply; every relation then reads rho_1 + ... + rho_k = rho_hat or = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from itertools import combinations
from typing import Optional, Sequence

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


@dataclass(frozen=True)
class RelationCertificate:
    pset: Cone
    coefficient_sum: int
    rhs_cone: Cone
    rhs_multiplicity: int  # how many relations share this rhs ray (0 if rhs empty)


@dataclass(frozen=True)
class ClassTier:
    tier: Tier
    certificates: tuple[RelationCertificate, ...]


@fan_mod.per_fan
def classify(fan: Fan) -> ClassTier:
    """Certify the strongest tier the fan satisfies."""
    fan_mod.require_accepted(fan)
    pdata = fan_mod.primitive_data(fan)
    head_count: dict[int, int] = {}
    for pd in pdata:
        if len(pd.rhs_cone) == 1 and pd.rhs_coeffs[0] == 1:
            head = pd.rhs_cone[0]
            head_count[head] = head_count.get(head, 0) + 1

    certs = []
    fano = sub = full = True
    for pd in pdata:
        s = sum(pd.rhs_coeffs)
        if s >= len(pd.set):
            fano = False
        if s > 1:
            sub = False
        mult = 0
        if len(pd.rhs_cone) == 1 and pd.rhs_coeffs[0] == 1:
            mult = head_count[pd.rhs_cone[0]]
            if mult > 1:
                full = False
        certs.append(RelationCertificate(pd.set, s, pd.rhs_cone, mult))

    if not fano:
        tier = Tier.NOT_FANO
    elif not sub:
        tier = Tier.FANO
    elif not full:
        tier = Tier.SUBVARIETIES_FANO
    else:
        tier = Tier.FULL_CLASS
    return ClassTier(tier, tuple(certs))


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


@dataclass(frozen=True)
class ExceptionalData:
    """Independent rays summing to the generator of another ray.

    cls pairs +1 with each member divisor and -1 with the exceptional one.
    """

    set: Cone
    exc: int
    cls: CurveClass


@fan_mod.per_fan
def exceptional_sets(fan: Fan) -> tuple[ExceptionalData, ...]:
    """All exceptional sets of the fan.

    Independence caps the subset size at the lattice dimension, so the
    subset search is shallow.  Requires the SubvarietiesFano tier.
    """
    if classify(fan).tier < Tier.SUBVARIETIES_FANO:
        raise NotInTier("exceptional sets need the SubvarietiesFano tier")
    ray_index = {ray: i for i, ray in enumerate(fan.rays)}
    out = []
    for k in range(2, fan.dim + 1):
        for cand in combinations(range(fan.n_rays), k):
            vecs = [fan.rays[i] for i in cand]
            total = vecs[0]
            for v in vecs[1:]:
                total = lattice.vadd(total, v)
            hit = ray_index.get(total)
            # a sum equal to a member leaves the others summing to zero
            if hit is None or hit in cand:
                continue
            if lattice.rational_rank(vecs) != k:
                continue
            pairings = [0] * fan.n_rays
            for i in cand:
                pairings[i] += 1
            pairings[hit] -= 1
            out.append(ExceptionalData(cand, hit, fan_mod.curve_class(fan, pairings)))
    return tuple(out)


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
    implies cycle-freeness.
    """
    excs = [e.exc for e in family]
    distinct = len(set(excs)) == len(excs)
    overlaps = any(e.exc in f.set for e in family for f in family)
    t = len(family)
    adj = [[f.exc in family[i].set for f in family] for i in range(t)]
    state = [0] * t  # 0 unseen, 1 active, 2 done

    def dfs(i: int) -> bool:
        state[i] = 1
        for j in range(t):
            if adj[i][j]:
                if state[j] == 1:
                    return True
                if state[j] == 0 and dfs(j):
                    return True
        state[i] = 2
        return False

    cyclic = any(state[i] == 0 and dfs(i) for i in range(t))
    return {
        "distinct_exc": distinct,
        "no_overlaps": not overlaps,
        "no_cycles": not cyclic,
    }


def primitive_exceptional_sets(fan: Fan) -> tuple[ExceptionalData, ...]:
    """Exceptional sets that are also primitive sets, i.e. blow-down data."""
    prims = {pd.set: pd for pd in fan_mod.primitive_data(fan)}
    out = []
    for exc in exceptional_sets(fan):
        pd = prims.get(exc.set)
        if pd is not None and pd.rhs_cone == (exc.exc,) and pd.rhs_coeffs == (1,):
            out.append(exc)
    return tuple(out)


def blow_down(fan: Fan, exc: ExceptionalData) -> Fan:
    """Contract the divisor of exc.exc; defined for primitive exceptional
    data on a FullClass fan.  The exceptional ray disappears and each cone
    through it is rebuilt over the member rays."""
    if classify(fan).tier < Tier.FULL_CLASS:
        raise NotInClass("blow-down is defined on FullClass fans")
    if exc not in primitive_exceptional_sets(fan):
        raise BlowDownInvalid(
            f"{tuple(i + 1 for i in exc.set)} -> {exc.exc + 1} is not primitive exceptional data"
        )
    drop = exc.exc
    relabel = {}
    new_rays = []
    for i, ray in enumerate(fan.rays):
        if i == drop:
            continue
        relabel[i] = len(new_rays)
        new_rays.append(ray)
    new_cones = set()
    for cone in fan.max_cones:
        if drop in cone:
            merged = sorted(set(cone) - {drop} | set(exc.set))
        else:
            merged = cone
        new_cones.add(tuple(sorted(relabel[i] for i in merged)))
    result = Fan(fan.dim, tuple(new_rays), tuple(sorted(new_cones)))
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
            chosen = None
            for exc in available:
                if current.rays[exc.exc] == wanted:
                    chosen = exc
                    break
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
