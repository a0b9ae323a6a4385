"""Curve trees: chains of 1-strata connecting a fixed point to a divisor.

A tree is built by repeatedly crossing walls of the ambient fan.  Starting
at the fixed point of a maximal cone mu and aiming at the divisor D_d, the
walk expresses rho_d in the basis of the current cone and crosses the wall
opposite the smallest-index generator carrying a negative coordinate; the
negated coordinate is the multiplicity of that edge.  Each wall crossing
contributes a 1-stratum curve class, and under the stronger tiers the
accumulated class realizes the lattice distance, which the degree_verified
flag records.
"""

from __future__ import annotations

from typing import NamedTuple

from . import fan as fan_mod, fano
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
    (rho_index,) = fan_mod._ray_indices(fan, (rho_index,), "ray index")
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
    +1 with the opposite divisors and -a_j with the wall divisors.  The two
    maximal cones come from the face index.  The argument is checked on
    every call; the class, which depends on the fan alone, is solved once
    per wall and kept in the fan's _wall_classes.
    """
    key = fan_mod._cone_key(fan, wall)
    if len(key) != fan.dim - 1:
        raise NotACone(f"{tuple(i + 1 for i in key)} is not a wall")
    known = _wall_classes(fan)
    cls = known.get(key)
    if cls is None:
        owners = fan_mod._face_index(fan)[key]
        rho = next(iter(set(owners[0]) - set(key)))
        rho2 = next(iter(set(owners[1]) - set(key)))
        coords = dict(zip(owners[1], fan_mod.coords_in_basis(fan, owners[1], fan.rays[rho])))
        if coords[rho2] != -1:
            raise RingInconsistent(f"wall {tuple(i + 1 for i in key)}: crossing is not unimodular")
        cls = known[key] = fan_mod._relation_class(fan, (rho, rho2), ((j, coords[j]) for j in key))
    return cls


@fan_mod.per_fan
def _wall_classes(fan: Fan) -> dict[Cone, CurveClass]:
    """wall -> the class of its 1-stratum, filled by wall_curve_class once
    its checks have passed."""
    return {}


def min_tree(fan: Fan, mu: Cone, d: int) -> ToricTree:
    """Greedy wall-crossing chain from the fixed point of mu to D_d."""
    root = _check_max_cone(fan, mu)
    (d,) = fan_mod._ray_indices(fan, (d,), "ray index")
    verified = fano.classify(fan).tier >= fano.Tier.SUBVARIETIES_FANO
    edges: list[tuple[Cone, int]] = []
    total = CurveClass((0,) * fan.n_rays)
    current = root
    across = fan_mod._complex(fan).across  # the cone across each facet
    seen: set[Cone] = set()  # the next cone depends on the current one alone
    while d not in current:
        if current in seen:
            raise LocateFailure(f"wall-crossing walk toward ray {d + 1} runs in a loop")
        seen.add(current)
        coords = fan_mod.coords_in_basis(fan, current, fan.rays[d])
        t = next((t for t, c in enumerate(coords) if c < 0), None)
        if t is None:
            raise LocateFailure(
                f"ray {d + 1} lies inside cone {tuple(i + 1 for i in current)}"
            )
        wall = current[:t] + current[t + 1 :]
        edges.append((wall, -coords[t]))
        total = total + wall_curve_class(fan, wall).scaled(-coords[t])
        current = across[current][t][0]
    return ToricTree(root, d, tuple(edges), total, verified)


def tree_for_class(fan: Fan, beta: CurveClass) -> tuple[tuple[ToricTree, int], ...]:
    """Tree realization of a curve class rooted where it pairs negatively.

    The divisors beta meets negatively must span a face of a maximal cone mu
    (the first one above it in the face index); each divisor met positively
    outside mu contributes its pairing many copies of the greedy chain from mu.
    A beta that is not a CurveClass is refused with ValueError.
    """
    fan_mod.require_accepted(fan)
    beta = fan_mod.curve_class(fan, fan_mod._strict_instance(beta, CurveClass, "beta").pairings)
    negatives = tuple(i for i, b in enumerate(beta.pairings) if b < 0)
    above = fan_mod._face_index(fan).get(negatives)
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
