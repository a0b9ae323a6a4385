import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb

import pytest

from toricqh import catalog, cohomology as coho, fan as fan_mod, lattice, quantum
from toricqh.cohomology import CohomologyClass
from toricqh.errors import IndexOutOfRange, NotACone, NotFano, PreconditionFailed


def test_shelling_oracles(p2, bl1p2, p1xp1):
    # key (f . raysum, f_1, f_2) by hand; T = 2 max|f| + 1
    s = coho.shelling(p2)  # f: (1, 1), (1, -2), (-2, 1); raysum 0; T = 5
    assert s.perturbation == (5, 1)
    assert s.order == ((0, 1), (0, 2), (1, 2))
    assert s.tau == ((), (2,), (1, 2))

    s = coho.shelling(bl1p2)  # raysum (1, 1), T = 5: 25 * (1, 1) + (5, 1)
    assert s.perturbation == (30, 26)
    assert s.order == ((0, 3), (1, 3), (0, 2), (1, 2))
    assert s.tau == ((), (1,), (2,), (1, 2))

    s = coho.shelling(p1xp1)  # f = (+-1, +-1); raysum 0; T = 3
    assert s.perturbation == (3, 1)
    assert s.order == ((0, 2), (0, 3), (1, 2), (1, 3))
    assert s.tau == ((), (3,), (1,), (1, 3))


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


def _reference_shelling(fan):
    """Reference order: the maximal cones by decreasing key (f . raysum,
    f_1, ..., f_n), each point functional f read off the integer inverse of
    the cone's ray matrix, with each tau cut down by the later neighbors."""
    funcs = {}
    for cone in fan.max_cones:
        inv = lattice.integer_inverse(lattice.mat_from_columns([fan.rays[i] for i in cone]))
        funcs[cone] = tuple(sum(row[j] for row in inv) for j in range(fan.dim))
    base = tuple(sum(col) for col in zip(*fan.rays))

    def key(c):
        return (lattice.dot(funcs[c], base),) + funcs[c]

    order = tuple(sorted(fan.max_cones, key=key, reverse=True))
    taus = []
    for i, mu in enumerate(order):
        gens = set(mu)
        for later in order[i + 1 :]:
            if len(set(mu) & set(later)) == fan.dim - 1:
                gens &= set(later)
        taus.append(tuple(sorted(gens)))
    return order, tuple(taus), funcs


def _check_against_reference(fan, label):
    s = coho._compute_shelling(fan)
    order, taus, funcs = _reference_shelling(fan)
    assert (s.order, s.tau) == (order, taus), label
    values = [lattice.dot(funcs[c], s.perturbation) for c in s.order]
    assert all(a > b for a, b in zip(values, values[1:])), label


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


def test_shelling_matches_reference_sort(corpus, p3, bundle3):
    for name, fan in _shelling_fans(corpus, p3, bundle3).items():
        _check_against_reference(fan, name)


def test_shelling_matches_reference_sort_on_gl_images(corpus, p3, bundle3, gl_image):
    checked = 0
    for name, fan in _shelling_fans(corpus, p3, bundle3).items():
        if fan.dim > 3:
            continue
        rng = random.Random(name)
        for _ in range(20):
            image = gl_image(fan, rng)
            _check_against_reference(image, (name, image))
            checked += 1
    assert checked == 20 * 8


@pytest.mark.parametrize(
    "factors, perturbation",
    [
        # every ray sum here is 0, so the vector is (T^(n-1), ..., T, 1)
        ((catalog.projective_space(1),) * 4, (27, 9, 3, 1)),  # max|f| = 1
        ((catalog.projective_space(5),), (11**4, 11**3, 11**2, 11, 1)),  # max|f| = 5
        ((catalog.projective_plane(), catalog.blowup_p2_three()), (125, 25, 5, 1)),  # max|f| = 2
        ((catalog.blowup_p2_three(), catalog.blowup_p2_three()), (27, 9, 3, 1)),  # max|f| = 1
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
    "p1x5": (lambda: catalog.projective_space(1),) * 5,
    "p1x6": (lambda: catalog.projective_space(1),) * 6,
    "bl3p2xp2xp2": (catalog.blowup_p2_three, catalog.projective_plane, catalog.projective_plane),
    "bl3p2xbl3p2xp1": (
        catalog.blowup_p2_three,
        catalog.blowup_p2_three,
        lambda: catalog.projective_space(1),
    ),
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


def _batyrev_forms(fan, degree):
    """Reference normal forms of every monomial of one degree, from the
    all-monomial Batyrev presentation: the primitive monomials times every
    monomial of the remaining degree and the linear relations times every
    monomial of degree d - 1, in one echelon whose last columns are the
    pinned monomials.  Asserts the pinned-pivot and census checks."""
    m = fan.n_rays
    pinned = {tau: i for i, tau in enumerate(coho.basis_tau(fan)) if len(tau) == degree}
    monos = sorted(combinations_with_replacement(range(m), degree))
    columns = [mo for mo in monos if mo not in pinned] + [mo for mo in monos if mo in pinned]
    col_of = {mo: j for j, mo in enumerate(columns)}
    ech = lattice.Echelon()
    for pset in fan_mod.primitive_sets(fan):
        if len(pset) <= degree:
            for mono in combinations_with_replacement(range(m), degree - len(pset)):
                ech.insert({col_of[tuple(sorted(pset + mono))]: 1})
    for t in range(fan.dim if degree else 0):
        for mono in combinations_with_replacement(range(m), degree - 1):
            row = {}
            for i in range(m):
                j = col_of[tuple(sorted(mono + (i,)))]
                row[j] = row.get(j, 0) + fan.rays[i][t]
            ech.insert(row)
    assert all(p < len(columns) - len(pinned) for p in ech.rows)
    assert len(columns) - ech.rank == len(pinned)
    values = ech.solve({col_of[mo]: {i: 1} for mo, i in pinned.items()})
    return {columns[j]: v for j, v in values.items()}


def _reference_fans():
    fans = dict(catalog.corpus(), p3=catalog.projective_space(3))
    fans["bundle3"] = catalog.twisted_bundle_threefold()
    for name, factors in PRODUCT_FACTORS.items():
        fan = catalog.product(*(make() for make in factors))
        if fan.dim <= 5:
            fans[name] = fan
    return fans


@pytest.mark.parametrize("name", sorted(_reference_fans()))
def test_normal_forms_match_batyrev_reference(name):
    # faces through the face echelon, every other monomial through the
    # classical rewrite: both must give the all-monomial echelon's forms
    fan = _reference_fans()[name]
    census = coho.betti_census(fan)
    for d in range(fan.dim + 1):
        assert coho.degree_dimension(fan, d) == census[d]
        reference = _batyrev_forms(fan, d)
        assert len(reference) == comb(fan.n_rays + d - 1, d)
        for mono, form in reference.items():
            assert coho.normal_form(fan, {mono: 1}) == CohomologyClass(form), (name, mono)


_TAMPERED_SHELLING = textwrap.dedent(
    """
    import dataclasses, sys
    from toricqh import catalog, clear_caches, cli, cohomology
    from toricqh.errors import FanNotAccepted, RingInconsistent
    from toricqh.fan import Fan

    fan = catalog.blowup_p2_one()
    compute_shelling = cohomology._compute_shelling
    good = compute_shelling(fan)
    if good.tau != ((), (1,), (2,), (1, 2)):
        sys.exit("the bl1p2 shelling moved: " + repr(good.tau))
    tampered = {
        "pinned pivot": ((), (0,), (1,), (0, 2)),
        "census": ((), (0,), (0, 2)),
        "duplicate": ((), (0,), (0,), (0, 2)),
        "ends": ((), (0,), (2,), (0,)),
    }
    for name, tau in tampered.items():
        cohomology._compute_shelling = lambda f, tau=tau: dataclasses.replace(good, tau=tau)
        clear_caches()
        try:
            for d in range(fan.dim + 1):
                cohomology.degree_dimension(fan, d)
        except RingInconsistent as exc:
            print(name, "raised:", exc)
        else:
            sys.exit(name + ": not detected")
    # the last tampered shelling is still in force
    clear_caches()
    code = cli.main(["multiply", "--fan", sys.argv[1], "D1", "D2"])
    print("exit", code)

    # a vector that ties the cone pairings, and a cone of a rejected fan
    cohomology._lex_vector = lambda base, bound: (0,) * len(base)
    try:
        compute_shelling(catalog.product_p1p1())
    except RingInconsistent as exc:
        print("tie raised:", exc)
    else:
        sys.exit("tie: not detected")
    half = Fan(2, ((2, 0), (0, 1)), ((0, 1),))
    try:
        cohomology._cone_point_functional(half, (0, 1))
    except FanNotAccepted as exc:
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


@pytest.mark.parametrize("bad", [1.7, 0.1, True, "1/2", None])
def test_cohomology_class_is_strict(p2, bad):
    # refused, not coerced: {1.7: 1} used to give {1: 1}, {0: 0.1} a binary fraction
    with pytest.raises(ValueError, match="basis index"):
        CohomologyClass({bad: 1})
    with pytest.raises(ValueError, match="coefficient"):
        CohomologyClass({0: bad})
    with pytest.raises(ValueError, match="scale factor"):
        coho.unit_class(p2).scaled(bad)
    with pytest.raises(ValueError, match="scale factor"):
        quantum.classical(p2, coho.unit_class(p2)).scaled(bad)
    with pytest.raises(ValueError, match="coefficient"):
        coho.normal_form(p2, {(0,): bad})
    assert CohomologyClass({0: 2, 1: Fraction(1, 2), 2: 0}).coords == {0: 2, 1: Fraction(1, 2)}
    assert coho.unit_class(p2).scaled(Fraction(-1, 3)) == CohomologyClass({0: Fraction(-1, 3)})


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
