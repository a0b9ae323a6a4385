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
from toricqh.errors import IndexOutOfRange, NotACone, NotFano, PreconditionFailed, RingInconsistent


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
    s, _ = coho._compute_shelling(fan)
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


def _face_index_taus(fan, order):
    """Reference taus: mu keeps ray i unless a maximal cone over the facet
    opposite i, looked up in the face index, comes later in the order."""
    index = fan_mod._face_index(fan)
    position = {mu: k for k, mu in enumerate(order)}
    return tuple(
        tuple(i for i in mu if all(position[c] <= k for c in index[tuple(j for j in mu if j != i)]))
        for k, mu in enumerate(order)
    )


def test_shelling_taus_match_the_face_index(corpus, threefolds, fano_threefolds, gl_image):
    # the taus come from the complex's walk plan, and the position map comes
    # with the order; the corpus, the threefolds, the blow-up threefolds and
    # the products, each with two seeded GL(n, Z) images
    fans = {**corpus, **threefolds, **fano_threefolds}
    for name, factors in PRODUCT_FACTORS.items():
        fans[name] = catalog.product(*(make() for make in factors))
    for name, fan in list(fans.items()):
        rng = random.Random(name)
        fans[name + "'"] = gl_image(fan, rng)
        fans[name + "''"] = gl_image(fan, rng)
    for name, fan in fans.items():
        s, position = coho._compute_shelling(fan)
        assert position == {mu: k for k, mu in enumerate(s.order)}, name
        assert s.tau == _face_index_taus(fan, s.order), name
    assert len(fans) == 3 * 30


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


def _pairing_determinant(fan, ref_determinant):
    basis = [coho.basis_class(fan, i) for i in range(len(coho.basis_tau(fan)))]
    rows = [
        [coho.integrate(fan, coho.cup(fan, a, b)) for b in basis]
        for a in basis
    ]
    return ref_determinant([[int(x) for x in row] for row in rows])


def test_poincare_pairing_unimodular(corpus, p3, bundle3, ref_determinant):
    for fan in list(corpus.values()) + [p3, bundle3]:
        assert abs(_pairing_determinant(fan, ref_determinant)) == 1


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
def test_product_fan_rings(name, ref_determinant):
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

    assert abs(_pairing_determinant(fan, ref_determinant)) == 1


def _solve(ech, free):
    """The value of every column of an echelon, given the values of the
    non-pivot ones.  Values are sparse integer vectors (dicts); a pivot
    column gets the value that makes its row vanish, by back substitution
    from the highest pivot down.  free must give a value for every column
    that is not a pivot.  Every division must be exact, as it is when the
    free columns are a Z-basis of the quotient; otherwise RingInconsistent."""
    values = {c: dict(v) for c, v in free.items()}
    for col in sorted(ech.rows, reverse=True):
        row = ech.rows[col]
        acc = {}
        for j, r in row.items():
            if j != col:
                for k, x in values[j].items():
                    acc[k] = acc.get(k, 0) + r * x
        lead = -row[col]
        if any(x % lead for x in acc.values()):
            raise RingInconsistent(f"column {col}: division by {lead} is not exact")
        values[col] = {k: x // lead for k, x in acc.items() if x}
    return values


def test_echelon_solve_kills_every_row():
    # an integral system: the free columns are a Z-basis of the quotient
    rows = [[1, 2, 0, 3], [0, 1, 1, 1], [1, 3, 1, 4]]
    ech = lattice.Echelon()
    for row in rows:
        ech.insert(dict(enumerate(row)))
    assert sorted(ech.rows) == [0, 1]
    values = _solve(ech, {2: {"a": 1}, 3: {"b": 1}})
    assert values[0] == {"a": 2, "b": -1} and values[1] == {"a": -1, "b": -1}
    assert all(type(x) is int for v in values.values() for x in v.values())
    for row in rows:
        total = {}
        for j, r in enumerate(row):
            for k, x in values[j].items():
                total[k] = total.get(k, 0) + r * x
        assert all(x == 0 for x in total.values())
    # pivot 2 on column 1: back substitution would need a half
    ech = lattice.Echelon()
    for row in ([1, 2, 0, 3], [0, 2, 1, 1]):
        ech.insert(dict(enumerate(row)))
    with pytest.raises(RingInconsistent, match="not exact"):
        _solve(ech, {2: {"a": 1}, 3: {"b": 1}})


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
    values = _solve(ech, {col_of[mo]: {i: 1} for mo, i in pinned.items()})
    return {columns[j]: v for j, v in values.items()}


def _eliminated_table(fan, degree):
    """Reference table of one degree by elimination: the relations r(sigma,
    u) among the degree-d faces, for each (d-1)-face sigma and each row u of
    the inverse of the first maximal cone over sigma for a ray outside
    sigma, in one echelon whose last columns are the pinned faces tau_i,
    then back substitution.  Returns (faces minus rank, face -> coords) and
    asserts that no pinned face pivots and that the rank matches the
    census."""
    index = fan_mod._face_index(fan)
    faces = [f for f in index if len(f) == degree]
    pinned = {tau: i for i, tau in enumerate(coho.basis_tau(fan)) if len(tau) == degree}
    columns = [f for f in faces if f not in pinned] + sorted(pinned)
    col_of = {f: j for j, f in enumerate(columns)}
    link = {}
    for tau in faces:
        for i in tau:
            link.setdefault(tuple(j for j in tau if j != i), []).append((i, col_of[tau]))
    ech = lattice.Echelon()
    for sigma, ext in link.items():
        mu = index[sigma][0]
        for r, u in zip(mu, fan_mod.cone_inverse(fan, mu)):
            if r not in sigma:
                ech.insert({j: lattice.dot(u, fan.rays[i]) for i, j in ext})
    assert all(p < len(columns) - len(pinned) for p in ech.rows)
    assert len(columns) - ech.rank == len(pinned)
    values = _solve(ech, {col_of[tau]: {i: 1} for tau, i in pinned.items()})
    return len(columns) - ech.rank, {columns[j]: v for j, v in values.items()}


def test_tables_match_the_elimination(corpus, threefolds, fano_threefolds, gl_image):
    # each degree's table read off the shelling's triangular relations is
    # the echelon's, dimension and every face's coordinates, on the corpus,
    # the threefolds, the blow-up threefolds, the products and census(2, 8),
    # each with two seeded GL(n, Z) images
    fans = {**corpus, **threefolds, **fano_threefolds}
    for name, factors in PRODUCT_FACTORS.items():
        fans[name] = catalog.product(*(make() for make in factors))
    for k, fan in enumerate(catalog.census(2, 8)):
        fans[f"census{k}"] = fan
    for name, fan in list(fans.items()):
        rng = random.Random(name)
        fans[name + "'"] = gl_image(fan, rng)
        fans[name + "''"] = gl_image(fan, rng)
    ring_tables = 0
    for name, fan in fans.items():
        ring = coho._ring(fan)
        for d in range(fan.dim + 1):
            assert ring.table(d) == _eliminated_table(fan, d), (name, d)
            ring_tables += 1
    assert (len(fans), ring_tables) == (3 * 35, 432)


def _reference_fans():
    fans = dict(catalog.corpus(), p3=catalog.projective_space(3))
    fans["bundle3"] = catalog.twisted_bundle_threefold()
    for name, factors in PRODUCT_FACTORS.items():
        fan = catalog.product(*(make() for make in factors))
        if fan.dim <= 5:
            fans[name] = fan
    return fans


@pytest.mark.parametrize("name", sorted(_reference_fans()) + ["fano_threefolds"])
def test_normal_forms_match_batyrev_reference(name, fano_threefolds):
    # faces through the shelling's tables, every other monomial through the
    # classical rewrite: both must give the all-monomial echelon's forms
    fans = fano_threefolds if name == "fano_threefolds" else {name: _reference_fans()[name]}
    for label, fan in fans.items():
        census = coho.betti_census(fan)
        for d in range(fan.dim + 1):
            assert coho.degree_dimension(fan, d) == census[d]
            reference = _batyrev_forms(fan, d)
            assert len(reference) == comb(fan.n_rays + d - 1, d)
            for mono, form in reference.items():
                assert coho.normal_form(fan, {mono: 1}) == CohomologyClass(form), (label, mono)


_TAMPERED_SHELLING = textwrap.dedent(
    """
    import sys
    from toricqh import catalog, clear_caches, cli, cohomology
    from toricqh.errors import FanNotAccepted, RingInconsistent
    from toricqh.fan import Fan

    fan = catalog.blowup_p2_one()
    compute_shelling = cohomology._compute_shelling
    good, position = compute_shelling(fan)
    if good.tau != ((), (1,), (2,), (1, 2)):
        sys.exit("the bl1p2 shelling moved: " + repr(good.tau))
    tampered = {
        "pinned pivot": ((), (0,), (1,), (0, 2)),
        "census": ((), (0,), (0, 2)),
        "duplicate": ((), (0,), (0,), (0, 2)),
        "ends": ((), (0,), (2,), (0,)),
    }
    for name, tau in tampered.items():
        cohomology._compute_shelling = lambda f, tau=tau: (good._replace(tau=tau), position)
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
    lex_vector = cohomology._lex_vector
    cohomology._lex_vector = lambda base, bound: (0,) * len(base)
    try:
        compute_shelling(catalog.product_p1p1())
    except RingInconsistent as exc:
        print("tie raised:", exc)
    else:
        sys.exit("tie: not detected")
    cohomology._lex_vector = lex_vector
    half = Fan(2, ((2, 0), (0, 1)), ((0, 1),))
    try:
        cohomology._cone_point_functional(half, (0, 1))
    except FanNotAccepted as exc:
        print("functional raised:", exc)
    else:
        sys.exit("functional: not detected")

    # on P^3, tau_2 = (3,) lies in the earlier cone (0, 1, 3), so the face
    # (2, 3) of its interval needs (1, 3), which is not later; tau_2 = (0,)
    # is no face of its interval, so degree 1 gets one basis face for two taus
    p3 = catalog.projective_space(3)
    good, position = compute_shelling(p3)
    if good.tau != ((), (3,), (2, 3), (1, 2, 3)):
        sys.exit("the p3 shelling moved: " + repr(good.tau))
    for name, tau, degree in [
        ("not later", ((), (0,), (3,), (1, 2, 3)), 2),
        ("census", ((), (3,), (0,), (1, 2, 3)), 1),
    ]:
        cohomology._compute_shelling = lambda f, tau=tau: (good._replace(tau=tau), position)
        clear_caches()
        try:
            cohomology.degree_dimension(p3, degree)
        except RingInconsistent as exc:
            print(name, "raised:", exc)
        else:
            sys.exit(name + ": not detected")

    # a linear row that the bl1p2 fill of the face (0, 2) reads, doubled:
    # no relation checked over a face reads it, and one of them fails
    cohomology._compute_shelling = compute_shelling
    clear_caches()
    ring = cohomology._ring(fan)
    row = ring.linear_row((0, 2), 0)
    ring._linear_rows[(0, 2), 0] = tuple((j, 2 * c) for j, c in row)
    try:
        cohomology.degree_dimension(fan, 2)
    except RingInconsistent as exc:
        print("relation raised:", exc)
    else:
        sys.exit("relation: not detected")
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
    assert [line.split(" raised:")[0] for line in lines[7:]] == ["not later", "census", "relation"]
    assert "is not in a later interval" in lines[7]
    assert "quotient dimension 1 does not match the shelling census 2" in lines[8]
    assert "does not vanish" in lines[9]
    # and the four bl1p2 shellings, each by its own check
    assert "does not contain tau_2" in lines[0]
    assert "taus for 4 maximal cones" in lines[1]
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


def test_cohomology_class_difference_repr_and_hash():
    a = CohomologyClass({0: 2, 2: Fraction(-1, 2)})
    assert a - CohomologyClass({0: 2}) == CohomologyClass({2: Fraction(-1, 2)})
    assert (a - a).is_zero()
    assert repr(a) == "CohomologyClass(2*b0 + -1/2*b2)"
    assert repr(CohomologyClass()) == "CohomologyClass(0)"
    # equal classes built in another order hash alike
    twin = CohomologyClass({2: Fraction(-1, 2), 0: 2})
    assert hash(twin) == hash(a) and len({a, twin}) == 1


def test_integrate_and_degrees(p2, p3):
    assert coho.integrate(p2, coho.point_class(p2)) == 1
    assert coho.integrate(p2, coho.unit_class(p2)) == 0
    assert coho.class_degrees(p2, coho.unit_class(p2)) == {0}
    assert coho.class_degrees(p3, coho.point_class(p3)) == {3}
    mixed = coho.unit_class(p2) + coho.point_class(p2)
    assert coho.class_degrees(p2, mixed) == {0, 2}
    assert coho.class_degrees(p2, CohomologyClass()) == set()


# integer weights for the localization oracle, truncated to the dimension
LOCALIZATION_WEIGHTS = ((1, 7, 53, 379, 2711), (2, 11, 97, 601, 4099))


def _localized_integral(fan, monomial, xi):
    """The integral of the divisor monomial by torus localization at the
    weight xi, without the presentation: the sum over maximal cones sigma of
    prod w(sigma, i) over the monomial divided by prod w(sigma, j) over
    sigma, where w(sigma, i) pairs xi with the row of sigma's inverse for
    ray i, and is 0 for a ray outside sigma.  None if some w(sigma, j) of
    a denominator is 0."""
    total = Fraction(0)
    for sigma in fan.max_cones:
        w = {
            j: sum(a * b for a, b in zip(row, xi))
            for j, row in zip(sigma, fan_mod.cone_inverse(fan, sigma))
        }
        den = 1
        for value in w.values():
            den *= value
        if den == 0:
            return None
        num = 1
        for i in monomial:
            num *= w.get(i, 0)
        total += Fraction(num, den)
    return total


def test_integrals_match_the_localization_formula(corpus, threefolds, fano_threefolds):
    # every degree-n divisor monomial integrates, through normal_form, to its
    # localization sum at each usable weight, exactly
    fans = {**corpus, **threefolds, **fano_threefolds}
    for name in ("p4", "p2xp2", "p1x4"):
        fans[name] = catalog.product(*(make() for make in PRODUCT_FACTORS[name]))
    checked = 0
    for name, fan in fans.items():
        for monomial in combinations_with_replacement(range(fan.n_rays), fan.dim):
            want = coho.integrate(fan, coho.normal_form(fan, {monomial: 1}))
            sums = [_localized_integral(fan, monomial, xi[: fan.dim]) for xi in LOCALIZATION_WEIGHTS]
            usable = [v for v in sums if v is not None]
            assert usable, name
            assert all(v == want for v in usable), (name, monomial, want, sums)
            checked += 1
    assert checked == 1745


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
