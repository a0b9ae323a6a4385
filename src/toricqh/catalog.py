"""Stock fans and the exhaustive surface census.

The census relies on the coordinate bound that the stronger tiers impose:
once one maximal cone is normalized to the standard basis, every ray of an
admissible surface fan has both coordinates in {-1, 0, 1}, so complete
nonsingular surface fans in the class are subsets of the eight candidate
rays, walked in cyclic order; validation decides which subsets are fans.
"""

from __future__ import annotations

from itertools import combinations

from . import fan as fan_mod, fano
from .fan import Fan


def projective_space(n: int) -> Fan:
    """P^n: the standard basis rays plus their negated sum."""
    if fan_mod._strict_int(n, "projective space dimension") < 1:
        raise ValueError("projective space needs positive dimension")
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = tuple(c for c in combinations(range(n + 1), n))
    return Fan(n, tuple(rays), cones)


def projective_plane() -> Fan:
    return projective_space(2)


def product_p1p1() -> Fan:
    return hirzebruch(0)


def hirzebruch(a: int) -> Fan:
    """The surface fibered over P^1 with twist a; a = 0 is P^1 x P^1."""
    if fan_mod._strict_int(a, "twist") < 0:
        raise ValueError("twist must be nonnegative")
    return Fan(2, ((1, 0), (-1, a), (0, 1), (0, -1)), ((0, 2), (0, 3), (1, 2), (1, 3)))


def blowup_p2_one() -> Fan:
    """P^2 with one point blown up, ray 4 exceptional."""
    return Fan(2, ((1, 0), (0, 1), (-1, -1), (1, 1)), ((0, 3), (1, 3), (1, 2), (0, 2)))


def blowup_p2_two() -> Fan:
    """P^2 with two points blown up, rays 4 and 5 exceptional."""
    return Fan(
        2,
        ((1, 0), (0, 1), (-1, -1), (1, 1), (0, -1)),
        ((0, 3), (1, 3), (1, 2), (2, 4), (0, 4)),
    )


def blowup_p2_three() -> Fan:
    """P^2 with three points blown up: the hexagon fan."""
    return Fan(
        2,
        ((1, 0), (0, 1), (-1, -1), (1, 1), (-1, 0), (0, -1)),
        ((0, 3), (1, 3), (1, 4), (2, 4), (2, 5), (0, 5)),
    )


def twisted_bundle_threefold() -> Fan:
    """A P^1 bundle over P^2 with twist two.

    Its triple primitive set has coefficient sum two, so the variety is Fano
    while its subvarieties are not: the tier sits strictly between.
    """
    rays = ((1, 0, 0), (0, 1, 0), (-1, -1, 2), (0, 0, 1), (0, 0, -1))
    cones = ((0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4), (1, 2, 3), (1, 2, 4))
    return Fan(3, rays, cones)


def product(*factors: Fan) -> Fan:
    """The product fan: the rays of each factor in its own block of
    coordinates, the maximal cones the unions of one maximal cone from each
    factor.  Rays are numbered factor by factor."""
    if not factors:
        raise ValueError("a product needs at least one factor")
    dim = sum(fan_mod._strict_instance(f, Fan, "factor").dim for f in factors)
    rays: list[tuple[int, ...]] = []
    cones: list[tuple[int, ...]] = [()]
    before = 0  # coordinates taken by the earlier factors
    for f in factors:
        offset = len(rays)
        rays += [(0,) * before + r + (0,) * (dim - before - f.dim) for r in f.rays]
        cones = [c + tuple(i + offset for i in d) for c in cones for d in f.max_cones]
        before += f.dim
    return Fan(dim, tuple(rays), tuple(cones))


def corpus() -> dict[str, Fan]:
    """The named well-behaved surfaces, keyed for tests and docs."""
    return {
        "p2": projective_plane(),
        "p1xp1": product_p1p1(),
        "bl1p2": blowup_p2_one(),
        "bl2p2": blowup_p2_two(),
        "bl3p2": blowup_p2_three(),
    }


_CYCLE = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))


def census(dim: int, max_rays: int) -> list[Fan]:
    """All full-class surfaces with at most max_rays rays, up to equivalence.

    Only dimension 2 is supported; the coordinate bound does not confine the
    ray set in higher dimension.
    """
    if fan_mod._strict_int(dim, "census dimension") != 2:
        raise ValueError("the census is only implemented for surfaces")
    if fan_mod._strict_int(max_rays, "census ray bound") < 3:
        return []
    found: list[Fan] = []
    base = {(1, 0), (0, 1)}
    for size in range(3, min(max_rays, len(_CYCLE)) + 1):
        for extra in combinations([v for v in _CYCLE if v not in base], size - 2):
            chosen = base | set(extra)
            rays = tuple(v for v in _CYCLE if v in chosen)
            cones = tuple(
                tuple(sorted((t, (t + 1) % len(rays)))) for t in range(len(rays))
            )
            cand = Fan(2, rays, cones)
            if not fan_mod.validate(cand).accepted:
                continue
            if fano.classify(cand).tier < fano.Tier.FULL_CLASS:
                continue
            if any(fan_mod.is_isomorphic(cand, seen) for seen in found):
                continue
            found.append(cand)
    return sorted(found, key=lambda f: (f.n_rays, f.rays))
