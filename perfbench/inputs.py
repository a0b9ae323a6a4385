"""Seeded inputs for the benchmark: product fans, GL(n,Z) images, corrupted
fans, ample divisors and monomial batches.

Everything here is built from the package's public API and the stock fans
in `toricqh.catalog`; the same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from itertools import combinations

from toricqh import catalog, curves, fan as fan_mod
from toricqh.fan import CurveClass, Fan


def product(*factors: Fan) -> Fan:
    """The product fan: rays of each factor in its own coordinate block,
    maximal cones the unions of one maximal cone from each factor."""
    dim = sum(f.dim for f in factors)
    rays: list[tuple[int, ...]] = []
    cones: list[tuple[int, ...]] = [()]
    ray_offset = dim_offset = 0
    for f in factors:
        for r in f.rays:
            rays.append((0,) * dim_offset + r + (0,) * (dim - dim_offset - f.dim))
        cones = [c + tuple(i + ray_offset for i in d) for c in cones for d in f.max_cones]
        ray_offset += f.n_rays
        dim_offset += f.dim
    return Fan(dim, tuple(rays), tuple(cones))


def kunneth(*censuses: dict[int, int]) -> dict[int, int]:
    """Betti census of a product: the convolution of the factors' censuses."""
    out = {0: 1}
    for cen in censuses:
        nxt: dict[int, int] = {}
        for a, x in out.items():
            for b, y in cen.items():
                nxt[a + b] = nxt.get(a + b, 0) + x * y
        out = nxt
    return out


def _factor(name: str) -> Fan:
    return {
        "p1": lambda: catalog.projective_space(1),
        "p2": catalog.projective_plane,
        "p3": lambda: catalog.projective_space(3),
        "p4": lambda: catalog.projective_space(4),
        "p5": lambda: catalog.projective_space(5),
        "p1xp1": catalog.product_p1p1,
        "bl1p2": catalog.blowup_p2_one,
        "bl2p2": catalog.blowup_p2_two,
        "bl3p2": catalog.blowup_p2_three,
        "f2": lambda: catalog.hirzebruch(2),
        "twisted": catalog.twisted_bundle_threefold,
    }[name]()


# Product fans and the catalog factors they are built from.
PRODUCTS: dict[str, tuple[str, ...]] = {
    "p2xp2": ("p2", "p2"),
    "bl3xp1": ("bl3p2", "p1"),
    "p1x4": ("p1", "p1", "p1", "p1"),
    "p1x3": ("p1", "p1", "p1"),
    "p2xp1": ("p2", "p1"),
    "bl1xp1": ("bl1p2", "p1"),
    "bl2xp1": ("bl2p2", "p1"),
}


def build(name: str) -> Fan:
    factors = PRODUCTS.get(name)
    if factors is None:
        return _factor(name)
    return product(*(_factor(f) for f in factors))


def factors(name: str) -> tuple[str, ...]:
    return PRODUCTS.get(name, ())


def gl_image(fan: Fan, rng: random.Random) -> Fan:
    """The fan moved by a seeded unimodular matrix: a signed permutation
    times three elementary transvections with entries +-1.  Ray labels are
    kept, so primitive sets and curve classes keep their indices."""
    n = fan.dim
    perm = list(range(n))
    rng.shuffle(perm)
    mat = [[(rng.choice((1, -1)) if perm[i] == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(3):
        a, b = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        for i in range(n):
            mat[i][b] += s * mat[i][a]
    rays = tuple(tuple(sum(mat[i][t] * r[t] for t in range(n)) for i in range(n)) for r in fan.rays)
    return Fan(n, rays, fan.max_cones)


CORRUPTIONS = ("drop_cone", "double_ray", "repeat_ray", "index_out_of_range", "zero_ray")


def corrupt(fan: Fan, kind: str, rng: random.Random) -> Fan:
    """A damaged copy of an accepted fan that validation must reject."""
    rays = list(fan.rays)
    cones = [list(c) for c in fan.max_cones]
    i = rng.randrange(len(rays))
    if kind == "drop_cone":
        del cones[rng.randrange(len(cones))]
    elif kind == "double_ray":
        rays[i] = tuple(2 * x for x in rays[i])
    elif kind == "repeat_ray":
        rays[i] = rays[(i + 1) % len(rays)]
    elif kind == "index_out_of_range":
        cone = cones[rng.randrange(len(cones))]
        cone[rng.randrange(len(cone))] = len(rays)
    elif kind == "zero_ray":
        rays[i] = (0,) * fan.dim
    else:
        raise ValueError(kind)
    return Fan(fan.dim, tuple(rays), tuple(tuple(c) for c in cones))


def torus_curves(fan: Fan) -> list[CurveClass]:
    """Primitive classes and the classes of all wall curves."""
    out = [pd.cls for pd in fan_mod.primitive_data(fan)]
    for cone in fan.max_cones:
        for wall in combinations(cone, fan.dim - 1):
            out.append(curves.wall_curve_class(fan, wall))
    return out


def ample_weights(fan: Fan, rng: random.Random) -> list[int]:
    """Seeded c_i in {1, 2} with H = sum c_i D_i positive on every torus
    curve.  An H that pairs to zero with a curve class drops that class's
    q-terms from its powers, so only ample H give every seed the same work."""
    curve_list = torus_curves(fan)
    while True:
        c = [rng.choice((1, 2)) for _ in range(fan.n_rays)]
        if all(sum(a * b for a, b in zip(c, beta.pairings)) > 0 for beta in curve_list):
            return c


def monomials(fan: Fan, rounds: int, rng: random.Random) -> list[tuple[int, ...]]:
    """Seeded divisor monomials, one of each degree n+1 .. 4n per round, so
    that every seed rewrites the same mix of degrees."""
    n, m = fan.dim, fan.n_rays
    return [
        tuple(sorted(rng.randrange(m) for _ in range(degree)))
        for _ in range(rounds)
        for degree in range(n + 1, 4 * n + 1)
    ]
