import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from toricqh import catalog, cohomology as coho, fan as fan_mod, lattice
from toricqh.cohomology import CohomologyClass
from toricqh.errors import IndexOutOfRange, NotACone, NotFano, PreconditionFailed


def test_shelling_oracles(p2, bl1p2, p1xp1):
    s = coho.shelling(p2)
    assert s.perturbation == (-1, 1)
    assert s.order == ((1, 2), (0, 1), (0, 2))
    assert s.tau == ((), (0,), (0, 2))

    s = coho.shelling(bl1p2)
    assert s.perturbation == (1, 2)
    assert s.order == ((1, 3), (0, 3), (1, 2), (0, 2))
    assert s.tau == ((), (0,), (2,), (0, 2))

    s = coho.shelling(p1xp1)
    assert s.perturbation == (-2, -1)
    assert s.order == ((1, 3), (1, 2), (0, 3), (0, 2))
    assert s.tau == ((), (2,), (0,), (0, 2))


def test_shelling_invariants(corpus, p3, bundle3):
    for fan in list(corpus.values()) + [p3, bundle3]:
        s = coho.shelling(fan)
        assert sorted(s.order) == sorted(fan.max_cones)
        assert len(s.tau) == len(fan.max_cones)
        for cone, tau in zip(s.order, s.tau):
            assert set(tau) <= set(cone)
        assert s.tau[0] == ()
        assert len(s.tau[-1]) == fan.dim
        assert len(set(s.tau)) == len(s.tau)


def _scan_shelling(fan):
    """Reference search: scan every point of each max-norm shell in
    lexicographic order and keep the first with distinct cone pairings."""
    funcs = {}
    for cone in fan.max_cones:
        inv = lattice.integer_inverse(lattice.mat_from_columns([fan.rays[i] for i in cone]))
        funcs[cone] = tuple(sum(row[j] for row in inv) for j in range(fan.dim))
    base = tuple(sum(col) for col in zip(*fan.rays))
    radius = 0
    while True:
        for offset in sorted(product(range(-radius, radius + 1), repeat=fan.dim)):
            if max(map(abs, offset), default=0) != radius:
                continue
            cand = lattice.vadd(base, offset)
            values = {c: lattice.dot(funcs[c], cand) for c in fan.max_cones}
            if len(set(values.values())) == len(values):
                order = tuple(sorted(fan.max_cones, key=lambda c: -values[c]))
                taus = []
                for i, mu in enumerate(order):
                    gens = set(mu)
                    for later in order[i + 1 :]:
                        if len(set(mu) & set(later)) == fan.dim - 1:
                            gens &= set(later)
                    taus.append(tuple(sorted(gens)))
                return coho.Shelling(cand, order, tuple(taus))
        radius += 1


def _gl_image(fan, rng):
    """The fan moved by a seeded unimodular matrix: a signed permutation
    times three transvections with entries +-1; ray labels are kept."""
    n = fan.dim
    perm = list(range(n))
    rng.shuffle(perm)
    mat = [[(rng.choice((1, -1)) if perm[i] == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(3):
        a, b = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        for row in mat:
            row[b] += s * row[a]
    rays = tuple(lattice.mat_vec(mat, r) for r in fan.rays)
    return fan_mod.Fan(n, rays, fan.max_cones)


def _shelling_fans(corpus, p3, bundle3):
    p1, p2 = catalog.projective_space(1), catalog.projective_plane()
    return dict(
        corpus,
        p3=p3,
        bundle3=bundle3,
        p4=catalog.product(catalog.projective_space(4)),
        p2xp2=catalog.product(p2, p2),
        bl3p2xp1=catalog.product(catalog.blowup_p2_three(), p1),
        p5=catalog.product(catalog.projective_space(5)),
    )


def test_shelling_matches_scan(corpus, p3, bundle3):
    for name, fan in _shelling_fans(corpus, p3, bundle3).items():
        assert coho._compute_shelling(fan) == _scan_shelling(fan), name


def test_shelling_matches_scan_on_gl_images(corpus, p3, bundle3):
    checked = 0
    for name, fan in _shelling_fans(corpus, p3, bundle3).items():
        if fan.dim > 3:
            continue
        rng = random.Random(name)
        for _ in range(20):
            image = _gl_image(fan, rng)
            assert coho._compute_shelling(image) == _scan_shelling(image), (name, image)
            checked += 1
    assert checked == 20 * 8


@pytest.mark.parametrize(
    "factors, perturbation",
    [
        ((catalog.projective_space(1),) * 4, (-7, -6, -5, -3)),
        ((catalog.projective_space(5),), (-3, -2, -1, 1, 2)),
        ((catalog.projective_plane(), catalog.blowup_p2_three()), (-3, 3, -3, -2)),
        ((catalog.blowup_p2_three(), catalog.blowup_p2_three()), (-11, 10, -9, -6)),
    ],
    ids=["p1x4", "p5", "p2xbl3p2", "bl3p2xbl3p2"],
)
def test_pinned_perturbations(factors, perturbation):
    fan = catalog.product(*factors)
    s = coho.shelling(fan)
    assert s.perturbation == perturbation
    values = [lattice.dot(coho._cone_point_functional(fan, c), perturbation) for c in s.order]
    assert values == sorted(set(values), reverse=True)


def test_shelling_without_generic_vector_fails_fast(f2, deadline):
    # two cones of F2 share the point functional (1, 1): no vector separates them
    with deadline(1.0):
        with pytest.raises(PreconditionFailed, match="same point functional"):
            coho._compute_shelling(f2)


def test_census_oracles(corpus, p3, bundle3):
    assert coho.betti_census(corpus["p2"]) == {0: 1, 1: 1, 2: 1}
    assert coho.betti_census(corpus["p1xp1"]) == {0: 1, 1: 2, 2: 1}
    assert coho.betti_census(corpus["bl1p2"]) == {0: 1, 1: 2, 2: 1}
    assert coho.betti_census(corpus["bl2p2"]) == {0: 1, 1: 3, 2: 1}
    assert coho.betti_census(corpus["bl3p2"]) == {0: 1, 1: 4, 2: 1}
    assert coho.betti_census(p3) == {0: 1, 1: 1, 2: 1, 3: 1}
    assert coho.betti_census(bundle3) == {0: 1, 1: 2, 2: 2, 3: 1}


def test_degree_dimension_matches_census(corpus, p3, bundle3):
    for fan in list(corpus.values()) + [p3, bundle3]:
        census = coho.betti_census(fan)
        for d in range(fan.dim + 1):
            assert coho.degree_dimension(fan, d) == census.get(d, 0)
        assert coho.degree_dimension(fan, -1) == 0
        assert coho.degree_dimension(fan, fan.dim + 1) == 0


def test_normal_form_oracles(p2, bl1p2):
    h = coho.basis_class(p2, 1)
    assert coho.normal_form(p2, {(0,): Fraction(1)}) == h
    assert coho.normal_form(p2, {(1,): Fraction(1)}) == h
    assert coho.normal_form(p2, {(2,): Fraction(1)}) == h
    assert coho.normal_form(bl1p2, {(3,): Fraction(1)}) == CohomologyClass(
        {1: Fraction(-1), 2: Fraction(1)}
    )


def test_normal_form_kills_primitive_monomials(corpus):
    for fan in corpus.values():
        for pset in fan_mod.primitive_sets(fan):
            assert coho.normal_form(fan, {pset: Fraction(1)}).is_zero()


def test_normal_form_kills_linear_relations(corpus, bundle3):
    for fan in list(corpus.values()) + [bundle3]:
        for t in range(fan.dim):
            poly = {(i,): Fraction(fan.rays[i][t]) for i in range(fan.n_rays)}
            assert coho.normal_form(fan, poly).is_zero()


def test_normal_form_truncates_and_validates(p2):
    assert coho.normal_form(p2, {(0, 0, 0): Fraction(1)}).is_zero()
    assert coho.normal_form(p2, {(): Fraction(3)}) == coho.unit_class(p2).scaled(3)
    with pytest.raises(IndexOutOfRange):
        coho.normal_form(p2, {(0, 9): Fraction(1)})


def test_cup_axioms(corpus, bundle3):
    for fan in list(corpus.values()) + [bundle3]:
        basis = [coho.basis_class(fan, i) for i in range(len(coho.basis_tau(fan)))]
        one = coho.unit_class(fan)
        for a, b in product(basis, repeat=2):
            assert coho.cup(fan, a, b) == coho.cup(fan, b, a)
            assert coho.cup(fan, one, a) == a
        for a, b, c in product(basis, repeat=3):
            left = coho.cup(fan, coho.cup(fan, a, b), c)
            right = coho.cup(fan, a, coho.cup(fan, b, c))
            assert left == right


def test_cup_surface_intersections(p1xp1):
    d0 = coho.normal_form(p1xp1, {(0,): Fraction(1)})
    d1 = coho.normal_form(p1xp1, {(1,): Fraction(1)})
    d2 = coho.normal_form(p1xp1, {(2,): Fraction(1)})
    assert d0 == d1
    assert coho.cup(p1xp1, d0, d1).is_zero()
    assert coho.cup(p1xp1, d0, d2) == coho.point_class(p1xp1)


def test_exceptional_curve_self_intersection(bl1p2):
    e = coho.stratum_class(bl1p2, (3,))
    assert coho.integrate(bl1p2, coho.cup(bl1p2, e, e)) == Fraction(-1)


def test_stratum_class(corpus):
    for fan in corpus.values():
        assert coho.stratum_class(fan, ()) == coho.unit_class(fan)
        for cone in fan.max_cones:
            assert coho.stratum_class(fan, cone) == coho.point_class(fan)
    with pytest.raises(NotACone):
        coho.stratum_class(corpus["p1xp1"], (0, 1))


def _pairing_determinant(fan):
    basis = [coho.basis_class(fan, i) for i in range(len(coho.basis_tau(fan)))]
    rows = [
        [coho.integrate(fan, coho.cup(fan, a, b)) for b in basis]
        for a in basis
    ]
    return lattice.determinant([[int(x) for x in row] for row in rows])


def test_poincare_pairing_unimodular(corpus, p3, bundle3):
    for fan in list(corpus.values()) + [p3, bundle3]:
        assert abs(_pairing_determinant(fan)) == 1


def _kunneth(*censuses):
    out = {0: 1}
    for cen in censuses:
        nxt = {}
        for a, x in out.items():
            for b, y in cen.items():
                nxt[a + b] = nxt.get(a + b, 0) + x * y
        out = nxt
    return out


PRODUCT_FACTORS = {
    "p4": (lambda: catalog.projective_space(4),),
    "p2xp2": (catalog.projective_plane, catalog.projective_plane),
    "p1x4": (lambda: catalog.projective_space(1),) * 4,
    "p2xbl3p2": (catalog.projective_plane, catalog.blowup_p2_three),
}


@pytest.mark.parametrize("name", sorted(PRODUCT_FACTORS))
def test_product_fan_rings(name):
    factors = [make() for make in PRODUCT_FACTORS[name]]
    fan = catalog.product(*factors)
    m, n = fan.n_rays, fan.dim
    census = coho.betti_census(fan)
    assert census == _kunneth(*(coho.betti_census(f) for f in factors))
    for d in range(n + 1):
        assert coho.degree_dimension(fan, d) == census[d]

    # every relation row vanishes and every pinned monomial is its own basis
    # vector: together these fix the normal form uniquely
    for d in range(1, n + 1):
        for mono in combinations_with_replacement(range(m), d - 1):
            for t in range(n):
                poly = {}
                for i in range(m):
                    key = tuple(sorted(mono + (i,)))
                    poly[key] = poly.get(key, 0) + fan.rays[i][t]
                assert coho.normal_form(fan, poly).is_zero()
    for pset in fan_mod.primitive_sets(fan):
        for d in range(len(pset), n + 1):
            for mono in combinations_with_replacement(range(m), d - len(pset)):
                assert coho.normal_form(fan, {pset + mono: 1}).is_zero()
    for i, tau in enumerate(coho.basis_tau(fan)):
        assert coho.normal_form(fan, {tau: 1}) == coho.basis_class(fan, i)

    assert abs(_pairing_determinant(fan)) == 1


_TAMPERED_SHELLING = textwrap.dedent(
    """
    import dataclasses, sys
    from toricqh import catalog, cli, cohomology
    from toricqh.errors import RingInconsistent
    from toricqh.fan import Fan

    fan = catalog.blowup_p2_one()
    compute_shelling = cohomology._compute_shelling
    good = compute_shelling(fan)
    if good.tau != ((), (0,), (2,), (0, 2)):
        sys.exit("the bl1p2 shelling moved: " + repr(good.tau))
    tampered = {
        "pinned pivot": ((), (0,), (1,), (0, 2)),
        "census": ((), (0,), (0, 2)),
        "duplicate": ((), (0,), (0,), (0, 2)),
        "ends": ((), (0,), (2,), (0,)),
    }
    for name, tau in tampered.items():
        cohomology._compute_shelling = lambda f, tau=tau: dataclasses.replace(good, tau=tau)
        cohomology._RINGS.clear()
        try:
            for d in range(fan.dim + 1):
                cohomology.degree_dimension(fan, d)
        except RingInconsistent as exc:
            print(name, "raised:", exc)
        else:
            sys.exit(name + ": not detected")
    # the last tampered shelling is still in force
    cohomology._RINGS.clear()
    code = cli.main(["multiply", "--fan", sys.argv[1], "D1", "D2"])
    print("exit", code)

    # a search that lands on a wall, and a cone with no integral functional
    cohomology._first_off_walls = lambda n, walls: (0,) * n
    try:
        compute_shelling(catalog.product_p1p1())
    except RingInconsistent as exc:
        print("tie raised:", exc)
    else:
        sys.exit("tie: not detected")
    half = Fan(2, ((2, 0), (0, 1)), ((0, 1),))
    try:
        cohomology._cone_point_functional(half, (0, 1))
    except RingInconsistent as exc:
        print("functional raised:", exc)
    else:
        sys.exit("functional: not detected")
    """
)


def test_tampered_shelling_raises_under_optimize(tmp_path):
    path = tmp_path / "bl1p2.json"
    path.write_text(fan_mod.fan_to_json(catalog.blowup_p2_one()))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _TAMPERED_SHELLING, str(path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(" raised:")[0] for line in lines[:4]] == [
        "pinned pivot", "census", "duplicate", "ends"
    ]
    assert lines[4] == "exit 3"
    assert lines[5].startswith("tie raised: perturbation (0, 0)")
    assert lines[6].startswith("functional raised:")
    assert "error:" in proc.stderr


def test_integrate_and_degrees(p2, p3):
    assert coho.integrate(p2, coho.point_class(p2)) == 1
    assert coho.integrate(p2, coho.unit_class(p2)) == 0
    assert coho.class_degrees(p2, coho.unit_class(p2)) == {0}
    assert coho.class_degrees(p3, coho.point_class(p3)) == {3}
    mixed = coho.unit_class(p2) + coho.point_class(p2)
    assert coho.class_degrees(p2, mixed) == {0, 2}
    assert coho.class_degrees(p2, CohomologyClass()) == set()


def test_basis_class_bounds(p2):
    with pytest.raises(IndexOutOfRange):
        coho.basis_class(p2, 3)
    with pytest.raises(IndexOutOfRange):
        coho.basis_class(p2, -1)


def test_not_fano_gate(f2):
    with pytest.raises(NotFano):
        coho.shelling(f2)
    with pytest.raises(NotFano):
        coho.normal_form(f2, {(): Fraction(1)})
    with pytest.raises(NotFano):
        coho.betti_census(f2)
