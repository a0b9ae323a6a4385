"""Curve trees: chains of 1-strata connecting a fixed point to a divisor.

A tree is built by repeatedly crossing walls of the ambient fan.  Starting
at the fixed point of a maximal cone mu and aiming at the divisor D_d, the
walk expresses rho_d in the basis of the current cone and crosses the wall
opposite the smallest-index generator carrying a negative coordinate; the
negated coordinate is the multiplicity of that edge.  Each crossing adds
its wall's relation, solved in the cone the walk stands in (_wall_relation),
times that multiplicity into the tree's one pairing vector, checked once as
a curve class.  Under the stronger tiers the accumulated class realizes the
lattice distance, which the degree_verified flag records.
"""

from __future__ import annotations

from typing import NamedTuple

from . import fan as fan_mod, fano, lattice
from .errors import LocateFailure, NotACone, PreconditionFailed, RingInconsistent
from .fan import Cone, CurveClass, Fan


class ToricTree(NamedTuple):
    root: Cone
    target: int
    edges: tuple[tuple[Cone, int], ...]  # crossed wall and multiplicity, in order
    cls: CurveClass
    degree_verified: bool


def signed_distance(fan: Fan, mu: Cone, rho_index: int) -> int:
    """One minus the coordinate sum of a ray in the basis of a maximal cone.

    Zero exactly on the generators of the cone; at least one on every other
    ray once subvarieties are Fano.  mu is checked as every cone argument
    is (fan._cone_key), and must be maximal; rho_index as every ray index
    is (fan._ray_indices).
    """
    mu = _check_max_cone(fan, mu)
    (rho_index,) = fan_mod._ray_indices(fan, (rho_index,), "ray index", "rho_index")
    coords = fan_mod.coords_in_basis(fan, mu, fan.rays[rho_index])
    return 1 - sum(coords)


def _check_max_cone(fan: Fan, mu: Cone) -> Cone:
    # cone_inverse takes a maximal cone as its sorted tuple
    key = fan_mod._cone_key(fan, mu)
    if len(key) != fan.dim:
        raise NotACone(f"{tuple(i + 1 for i in key)} is not a maximal cone")
    return key


def wall_curve_class(fan: Fan, wall: Cone) -> CurveClass:
    """The class of the 1-stratum of a wall (a codimension-1 cone).

    With rho and rho' the generators opposite the wall in its two maximal
    cones, rho + rho' = sum(a_j rho_j) over the wall, and the stratum pairs
    +1 with the opposite divisors and -a_j with the wall divisors.  The
    argument is checked on every call, and the relation is solved in the
    first maximal cone above the wall in the face index (_wall_relation).
    """
    key = fan_mod._cone_key(fan, wall)
    if len(key) != fan.dim - 1:
        raise NotACone(f"{tuple(i + 1 for i in key)} is not a wall")
    record = fan_mod.require_accepted(fan)
    mu = record[0].index[key][0]
    return fan_mod._relation_class(fan, *_wall_relation(fan, record, mu, mu.index(sum(mu) - sum(key))))


def _wall_relation(
    fan: Fan, record: tuple, mu: Cone, t: int
) -> tuple[tuple[int, int], tuple[tuple[int, int], ...]]:
    """The relation rho + rho' = sum(a_j rho_j) of the wall of the maximal
    cone mu opposite its t-th ray rho, as fan._relation_class's arguments:
    rho' is the ray the walk plan brings in across the wall, and the a_j are
    its coordinates in mu, -1 at rho, both read off the fan's record."""
    rho, far = mu[t], record[0].across[mu][t][1]
    coords = lattice.mat_vec(record[1][mu], fan.rays[far])
    if coords[t] != -1:
        wall = fan_mod._one_based(mu[:t] + mu[t + 1 :])
        raise RingInconsistent(f"wall {wall}: crossing is not unimodular")
    return (rho, far), tuple((j, a) for j, a in zip(mu, coords) if j != rho)


def min_tree(fan: Fan, mu: Cone, d: int) -> ToricTree:
    """Greedy wall-crossing chain from the fixed point of mu to D_d."""
    root = _check_max_cone(fan, mu)
    (d,) = fan_mod._ray_indices(fan, (d,), "ray index", "d")
    verified = fano.classify(fan).tier >= fano.Tier.SUBVARIETIES_FANO
    edges: list[tuple[Cone, int]] = []
    pairings = [0] * fan.n_rays
    current = root
    record = fan_mod.require_accepted(fan)  # the walk plan and the cone inverses
    seen: set[Cone] = set()  # the next cone depends on the current one alone
    while d not in current:
        if current in seen:
            raise LocateFailure(f"wall-crossing walk toward ray {d + 1} runs in a loop")
        seen.add(current)
        coords = lattice.mat_vec(record[1][current], fan.rays[d])
        t = next((t for t, c in enumerate(coords) if c < 0), None)
        if t is None:
            raise LocateFailure(
                f"ray {d + 1} lies inside cone {tuple(i + 1 for i in current)}"
            )
        mult = -coords[t]
        edges.append((current[:t] + current[t + 1 :], mult))
        lhs, rhs = _wall_relation(fan, record, current, t)
        for i in lhs:
            pairings[i] += mult
        for j, a in rhs:
            pairings[j] -= mult * a
        current = record[0].across[current][t][0]
    return ToricTree(root, d, tuple(edges), fan_mod.curve_class(fan, pairings), verified)


def tree_for_class(fan: Fan, beta: CurveClass) -> tuple[tuple[ToricTree, int], ...]:
    """Tree realization of a curve class rooted where it pairs negatively.

    The divisors beta meets negatively must span a face of a maximal cone mu
    (the first one above it in the face index); each divisor met positively
    outside mu contributes its pairing many copies of the greedy chain from mu.
    A beta that is not a CurveClass is refused with ValueError.
    """
    index = fan_mod.require_accepted(fan)[0].index
    beta = fan_mod.curve_class(fan, fan_mod._strict_instance(beta, CurveClass, "beta").pairings)
    negatives = tuple(i for i, b in enumerate(beta.pairings) if b < 0)
    above = index.get(negatives)
    if above is None:
        raise PreconditionFailed("divisors with negative pairing do not lie in one maximal cone")
    mu = above[0]
    out = []
    for d, b in enumerate(beta.pairings):
        if b > 0 and d not in mu:
            out.append((min_tree(fan, mu, d), b))
    return tuple(out)


def tree_total(trees: tuple[tuple[ToricTree, int], ...]) -> CurveClass:
    """Sum of the tree classes with multiplicity; empty input gives nothing
    to size the zero class by, so callers handle that case.  An entry that
    is not a (tree, count) pair, or a tree that is not a ToricTree, is
    refused with ValueError."""
    if not trees:
        raise PreconditionFailed("no trees to total")
    classes = []
    for entry in trees:
        if not isinstance(entry, tuple) or len(entry) != 2:
            raise ValueError(f"tree entry {entry!r} is not a (tree, count) pair")
        tree, count = entry
        classes.append(fan_mod._strict_instance(tree, ToricTree, "tree").cls.scaled(count))
    return sum(classes[1:], classes[0])
