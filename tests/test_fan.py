import inspect
import json
import random
from itertools import combinations, combinations_with_replacement

import pytest
from conftest import _ref_solve_columns

import toricqh
from toricqh import catalog, clear_caches, cohomology, curves, fan as fan_mod, fano, lattice, quantum
from toricqh.errors import (
    DimensionMismatch,
    FanNotAccepted,
    IndexOutOfRange,
    NotACone,
    NotEffective,
    NotFano,
    PreconditionFailed,
    SearchBudgetExceeded,
)
from toricqh.fan import CurveClass, Fan


def test_corpus_accepted(corpus, f2, p3, bundle3):
    for fan in list(corpus.values()) + [f2, p3, bundle3]:
        report = fan_mod.validate(fan)
        assert report.accepted, report.problems


def test_validate_rejects_nonprimitive_ray():
    fan = Fan(2, ((2, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
    report = fan_mod.validate(fan)
    assert not report.accepted
    assert any("not primitive" in p for p in report.problems)


def test_validate_rejects_duplicate_rays():
    fan = Fan(2, ((1, 0), (1, 0), (0, 1)), ((0, 2), (1, 2)))
    assert not fan_mod.validate(fan).accepted


def test_validate_rejects_zero_ray():
    fan = Fan(2, ((0, 0), (0, 1), (1, 0)), ((0, 1), (0, 2)))
    assert not fan_mod.validate(fan).accepted


def test_validate_rejects_nonunimodular_cone():
    fan = Fan(2, ((1, 0), (1, 2), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
    report = fan_mod.validate(fan)
    assert not report.accepted
    assert report.problems == ("cone (1, 2) is not unimodular",)


def test_validate_rejects_incomplete_fan():
    fan = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2)))
    report = fan_mod.validate(fan)
    assert not report.accepted
    assert any("expected 2" in p for p in report.problems)


def test_validate_rejects_unused_ray():
    fan = Fan(1, ((1,), (-1,), (1,)), ((0,), (1,)))
    assert not fan_mod.validate(fan).accepted  # duplicate and unused


def test_validate_dimension_one_and_zero():
    line = Fan(1, ((1,), (-1,)), ((0,), (1,)))
    assert fan_mod.validate(line).accepted
    point = Fan(0, (), ((),))
    assert fan_mod.validate(point).accepted
    assert not fan_mod.validate(Fan(0, ((),), ((),))).accepted


def test_validate_rejects_bad_cone_shapes():
    fan = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1, 2),))
    assert not fan_mod.validate(fan).accepted
    fan2 = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 5), (1, 2), (0, 2)))
    assert not fan_mod.validate(fan2).accepted


def test_require_accepted_raises():
    bad = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2)))
    with pytest.raises(FanNotAccepted) as err:
        fan_mod.require_accepted(bad)
    assert err.value.report.problems


def test_json_round_trip(corpus, fans_dir):
    for fan in corpus.values():
        again = fan_mod.fan_from_json(fan_mod.fan_to_json(fan))
        assert again == fan
    data = json.loads(fan_mod.fan_to_json(corpus["p2"]))
    assert sorted(min(c) for c in data["max_cones"]) == [1, 1, 2]  # 1-based outside


def test_fan_files_match_catalog(corpus, fans_dir):
    pairs = {
        "p2.json": corpus["p2"],
        "p1xp1.json": corpus["p1xp1"],
        "bl1p2.json": corpus["bl1p2"],
        "bl2p2.json": corpus["bl2p2"],
        "bl3p2.json": corpus["bl3p2"],
    }
    for name, fan in pairs.items():
        assert fan_mod.load_fan(str(fans_dir / name)) == fan
    assert fan_mod.load_fan(str(fans_dir / "f2.json")) == catalog.hirzebruch(2)
    assert fan_mod.load_fan(str(fans_dir / "p3.json")) == catalog.projective_space(3)


def test_deeply_nested_json_is_malformed_data(tmp_path):
    # the decoder recurses once per bracket; past the recursion limit that
    # used to escape as a RecursionError
    deep = "[" * 100_000 + "]" * 100_000
    with pytest.raises(ValueError, match="malformed fan data"):
        fan_mod.fan_from_json(deep)
    path = tmp_path / "deep.json"
    path.write_text(deep)
    with pytest.raises(ValueError, match="malformed fan data"):
        fan_mod.load_fan(str(path))


def test_from_json_dict_malformed():
    with pytest.raises(ValueError):
        Fan.from_json_dict({"dim": 2})
    with pytest.raises(ValueError):
        Fan.from_json_dict({"dim": 2, "rays": [[1, 0]], "max_cones": 3})


P2_RAYS = ((1, 0), (0, 1), (-1, -1))
P2_CONES = ((0, 1), (1, 2), (0, 2))


@pytest.mark.parametrize("bad", [1.7, 1.0, True, False, "1"])
def test_fan_entries_must_be_int(bad):
    rays = ((bad, 0),) + P2_RAYS[1:]
    with pytest.raises(ValueError, match="ray entry"):
        Fan(2, rays, P2_CONES)
    cones = ((bad, 1),) + P2_CONES[1:]
    with pytest.raises(ValueError, match="cone index"):
        Fan(2, P2_RAYS, cones)
    with pytest.raises(ValueError, match="dim"):
        Fan(bad, P2_RAYS, P2_CONES)

    # through JSON, where cone indices are 1-based: true - 1 would be 0
    data = {"dim": 2, "rays": [list(r) for r in P2_RAYS], "max_cones": [[1, 2], [2, 3], [1, 3]]}
    data["rays"][0][0] = bad
    with pytest.raises(ValueError):
        Fan.from_json_dict(data)
    data["rays"][0][0] = 1
    data["max_cones"][0][0] = bad
    with pytest.raises(ValueError):
        Fan.from_json_dict(data)
    data["max_cones"][0][0] = 1
    assert Fan.from_json_dict(data) == catalog.projective_plane()


def test_faces_and_is_cone(p2):
    fs = fan_mod.faces(p2)
    assert fs[0] == ()
    assert len(fs) == 7  # empty, three rays, three edges
    assert fan_mod.is_cone(p2, (0, 1))
    assert not fan_mod.is_cone(p2, (0, 1, 2))
    assert not fan_mod.is_cone(p2, (0, 0))
    with pytest.raises(IndexOutOfRange):
        fan_mod.is_cone(p2, (0, 9))


def test_validate_reports_unused_ray_and_disconnected_fan():
    p2_rays = ((1, 0), (0, 1), (-1, -1))
    p2_cones = ((0, 1), (1, 2), (0, 2))
    unused = Fan(2, p2_rays + ((1, 1),), p2_cones)
    assert fan_mod.validate(unused).problems == ("ray 4 lies in no maximal cone",)
    # two complete fans on disjoint rays: every facet lies in two cones, and
    # the ray sum (1, 1) of the first cone is ray 6 of the second fan
    twice = Fan(2, p2_rays + ((-1, 0), (0, -1), (1, 1)), p2_cones + ((3, 4), (4, 5), (3, 5)))
    assert fan_mod.validate(twice).problems == (
        "maximal cones (1, 2) and (4, 6) overlap",
        "maximal cones (1, 2) and (5, 6) overlap",
    )
    with pytest.raises(FanNotAccepted):
        fan_mod.faces(twice)


def test_validate_rejects_overlapping_cones(not_fans):
    assert fan_mod.validate(not_fans["double winding"]).problems == (
        "maximal cones (1, 2) and (4, 5) overlap",
        "maximal cones (1, 2) and (5, 6) overlap",
    )
    assert fan_mod.validate(not_fans["fold"]).problems == (
        "maximal cones (1, 2) and (2, 3) lie on one side of their facet (2,)",
        "maximal cones (2, 3) and (3, 4) lie on one side of their facet (3,)",
    )
    for fan in not_fans.values():
        with pytest.raises(FanNotAccepted):
            fan_mod.primitive_data(fan)
        with pytest.raises(FanNotAccepted):
            fan_mod.cone_inverse(fan, fan.max_cones[0])


def test_cone_inverse_takes_only_maximal_cones(p2):
    assert fan_mod.cone_inverse(p2, (0, 1)) == ((1, 0), (0, 1))
    for cone in ((1, 0), (0,), (0, 1, 2)):
        with pytest.raises(NotACone, match="is not a maximal cone"):
            fan_mod.cone_inverse(p2, cone)


def test_validate_words_malformed_shapes():
    assert fan_mod.validate(Fan(2, P2_RAYS[:2] + ((-1, -1, 0),), P2_CONES)).problems == (
        "ray 3 has length 3, expected 2",
    )
    assert fan_mod.validate(Fan(2, P2_RAYS, ())).problems == ("no maximal cones",)
    assert fan_mod.validate(Fan(2, P2_RAYS, P2_CONES + ((1, 0),))).problems == (
        "maximal cones are not distinct",
    )


def _index_fans(corpus, f2, p3, bundle3, gl_image):
    """The corpus, F2, P^3, the twisted bundle, the product fans, 20 GL(n, Z)
    images of each fan of dimension at most 3, and the star of every cone."""
    from test_cohomology import PRODUCT_FACTORS

    base = list(corpus.values()) + [f2, p3, bundle3]
    products = [catalog.product(*(make() for make in factors)) for factors in PRODUCT_FACTORS.values()]
    rng = random.Random(7)
    images = [gl_image(fan, rng) for fan in base for _ in range(20)]
    stars = [fan_mod.star(fan, sigma) for fan in base + products for sigma in fan_mod.faces(fan)]
    return base + products + images + stars


def test_face_index_lists_every_containing_cone(corpus, f2, p3, bundle3, gl_image):
    for fan in _index_fans(corpus, f2, p3, bundle3, gl_image):
        index = fan_mod._face_index(fan)
        subsets = {f for mu in fan.max_cones for k in range(fan.dim + 1) for f in combinations(mu, k)}
        assert set(index) == subsets  # no entry for a non-face
        assert list(index) == sorted(subsets, key=lambda f: (len(f), f)) == fan_mod.faces(fan)
        for face, above in index.items():
            assert above == [mu for mu in fan.max_cones if set(face) <= set(mu)]


_CONE_ENTRY_POINTS = {
    "star": fan_mod.star,
    "stratum_class": cohomology.stratum_class,
    "special_exceptional_sets": fano.special_exceptional_sets,
    "giambelli": quantum.giambelli,
    "divisor_product_closed_form": quantum.divisor_product_closed_form,
    "wall_curve_class": lambda fan, cone: curves.wall_curve_class(fan, cone[1:]),
    "signed_distance": lambda fan, cone: curves.signed_distance(fan, cone, 1),
    "min_tree": lambda fan, cone: curves.min_tree(fan, cone, 1),
}


@pytest.mark.parametrize("entry", sorted(_CONE_ENTRY_POINTS))
@pytest.mark.parametrize(
    "cone, error",
    [((0, 6, None), ValueError), ((0, 6, 8), IndexOutOfRange), ((0, 6, -1), IndexOutOfRange),
     ((0, 6, 7), NotACone), ((0, 6, 6), NotACone)],
    ids=["non-int", "past-the-end", "negative", "non-cone", "repeated"],
)
def test_cone_entry_points_check_their_argument(entry, cone, error):
    # Bl3P^2 x P^1: rays 6 and 7 are the opposite rays of the P^1 factor, so
    # neither (0, 6, 7) nor the wall (6, 7) spans a cone
    fan = catalog.product(catalog.blowup_p2_three(), catalog.projective_space(1))
    with pytest.raises(error):
        _CONE_ENTRY_POINTS[entry](fan, cone)
    if error is not NotACone:
        with pytest.raises(error):
            fan_mod.is_cone(fan, cone)
    else:
        assert not fan_mod.is_cone(fan, cone)


_RAY_ENTRY_POINTS = {
    "signed_distance": lambda fan, i: curves.signed_distance(fan, fan.max_cones[0], i),
    "min_tree": lambda fan, i: curves.min_tree(fan, fan.max_cones[0], i),
    "blow_down_tower": lambda fan, i: fano.blow_down_tower(fan, [i]),
    "reduce_monomial": lambda fan, i: quantum.reduce_monomial(fan, (i, 1)),
    "evaluate_terms": lambda fan, i: quantum.evaluate_terms(
        fan, [quantum.QuantumTerm(quantum.zero_curve(fan), (i, 1), 1)]
    ),
    "normal_form": lambda fan, i: cohomology.normal_form(fan, {(i, 1): 1}),
    "primitive_relation": lambda fan, i: fan_mod.primitive_relation(fan, (i, 1)),
}


@pytest.mark.parametrize("entry", sorted(_RAY_ENTRY_POINTS))
@pytest.mark.parametrize("bad", ["non-int", "negative", "past-the-end"])
def test_ray_entry_points_check_their_indices(bl3p2, entry, bad):
    # every entry point goes through fan._ray_indices: one exception type
    # per kind of bad index, and a range error names the index 1-based
    index = {"non-int": 1.0, "negative": -1, "past-the-end": bl3p2.n_rays}[bad]
    error = ValueError if bad == "non-int" else IndexOutOfRange
    with pytest.raises(error) as err:
        _RAY_ENTRY_POINTS[entry](bl3p2, index)
    if error is IndexOutOfRange:
        assert f"({index + 1}," in str(err.value)
    else:
        assert "index 1.0 is not an integer" in str(err.value)


def test_equal_fans_share_one_context(bl3p2):
    again = Fan.from_json_dict(json.loads(json.dumps(bl3p2.to_json_dict())))
    assert again is not bl3p2 and again == bl3p2 and hash(again) == hash(bl3p2)
    assert quantum._qring(again) is quantum._qring(bl3p2)
    assert fan_mod._validated(again)[2] is fan_mod._validated(bl3p2)[2]
    shuffled = Fan(bl3p2.dim, bl3p2.rays, tuple(reversed(bl3p2.max_cones)))
    assert shuffled == bl3p2 and hash(shuffled) == hash(bl3p2)
    assert Fan(2, bl3p2.rays[::-1], bl3p2.max_cones) != bl3p2


def _cyclic_surfaces():
    """The candidates `census 2 8` screens: each ray set of the coordinate
    cycle holding (1, 0) and (0, 1), in cycle order, with the cones of
    neighbours; the 63 fans fall into 6 complexes, one per ray count."""
    cycle = catalog._CYCLE
    out = []
    for size in range(3, len(cycle) + 1):
        for extra in combinations(cycle[1:2] + cycle[3:], size - 2):
            rays = tuple(v for v in cycle if v in {(1, 0), (0, 1)} | set(extra))
            out.append(Fan(2, rays, tuple(tuple(sorted((t, (t + 1) % size))) for t in range(size))))
    return out


def _results(fan):
    """validate, faces, primitive_sets and primitive_data of the fan, each
    an exception's type and text where it raises."""
    out = [fan_mod.validate(fan)]
    for call in (fan_mod.faces, fan_mod.primitive_sets, fan_mod.primitive_data):
        try:
            out.append(call(fan))
        except FanNotAccepted as exc:
            out.append((type(exc), str(exc)))
    return out


def test_warm_results_equal_cold_across_shared_complexes(corpus, threefolds, gl_image, not_fans):
    # fans of one complex (dim, ray count, maximal cones) share its face
    # index and primitive sets; each fan must get what it gets alone
    hirzebruch = [catalog.hirzebruch(a) for a in range(4)]
    census = _cyclic_surfaces()
    assert len(census) == 63
    assert len({(f.dim, f.n_rays, f.max_cones) for f in census}) == 6
    rng = random.Random(29)
    base = list(corpus.values()) + list(threefolds.values()) + hirzebruch
    accepted = base + [gl_image(fan, rng) for fan in base for _ in range(3)]
    # rejected for their rays alone: a ray that is not primitive, a cone
    # that is not unimodular, two cones on one side of a wall, and cones
    # winding twice around the origin, each on an accepted fan's complex
    p2, bl3p2 = corpus["p2"], corpus["bl3p2"]
    failing = [
        Fan(2, ((2, 0),) + bl3p2.rays[1:], bl3p2.max_cones),
        Fan(2, p2.rays[:2] + ((-1, -2),), p2.max_cones),
        not_fans["fold"],
        not_fans["double winding"],
    ]
    complexes = {(f.dim, f.n_rays, f.max_cones) for f in accepted + census}
    assert all((f.dim, f.n_rays, f.max_cones) in complexes for f in failing)
    fans = accepted + census + failing
    for order in (fans, fans[::-1]):
        clear_caches()
        warm = [_results(fan) for fan in order]
        shared = {key for key in fan_mod._DERIVED if not isinstance(key, Fan)}
        assert shared == {(f.dim, f.n_rays, f.max_cones) for f in order}
        for fan, expected in zip(order, warm):
            clear_caches()
            assert _results(fan) == expected, fan
    assert [r[0].problems for r in map(_results, failing)] == [
        ("ray 1 = (2, 0) is not primitive",),
        ("cone (1, 3) is not unimodular",),
        fan_mod.validate(not_fans["fold"]).problems,
        fan_mod.validate(not_fans["double winding"]).problems,
    ]


def test_the_complex_is_built_once_for_images_of_one_fan(bl3p2, gl_image, monkeypatch):
    builds = []
    build = fan_mod._build_complex
    monkeypatch.setattr(fan_mod, "_build_complex", lambda *key: builds.append(key) or build(*key))
    monkeypatch.setattr(fan_mod, "_DERIVED", {})  # no entry of the counting builder outlives the test
    rng = random.Random(20)
    images = [gl_image(bl3p2, rng) for _ in range(20)]
    assert len(set(images)) > 10
    for image in images:
        assert fan_mod.validate(image).accepted
        fan_mod.primitive_data(image)
        assert fan_mod._face_index(image) is fan_mod._face_index(images[0])
    assert len(builds) == 1
    clear_caches()
    assert fan_mod._DERIVED == {}
    fan_mod.primitive_sets(images[-1])
    assert len(builds) == 2


def test_primitive_sets_oracles(corpus):
    expected = {
        "p2": ((0, 1, 2),),
        "p1xp1": ((0, 1), (2, 3)),
        "bl1p2": ((0, 1), (2, 3)),
        "bl2p2": ((0, 1), (0, 2), (1, 4), (2, 3), (3, 4)),
        "bl3p2": (
            (0, 1), (0, 2), (0, 4), (1, 2), (1, 5),
            (2, 3), (3, 4), (3, 5), (4, 5),
        ),
    }
    for name, fan in corpus.items():
        assert fan_mod.primitive_sets(fan) == expected[name]


def _primitive_sets_by_subsets(fan):
    """Reference for primitive_sets: every k-subset of the rays, 2 <= k <= n + 1,
    that spans no cone while each of its (k - 1)-subsets does."""
    index = fan_mod._face_index(fan)
    m, n = fan.n_rays, fan.dim
    found = []
    for k in range(2, min(m, n + 1) + 1):
        for cand in combinations(range(m), k):
            if cand not in index and all(sub in index for sub in combinations(cand, k - 1)):
                found.append(cand)
    return tuple(sorted(found, key=lambda p: (len(p), p)))


def test_primitive_sets_match_subset_enumeration(corpus, p3, bundle3, gl_image):
    from test_cohomology import PRODUCT_FACTORS

    products = [catalog.product(*(make() for make in factors)) for factors in PRODUCT_FACTORS.values()]
    base = list(corpus.values()) + catalog.census(2, 8) + [p3, bundle3] + products
    rng = random.Random(18)
    images = [gl_image(fan, rng) for fan in base if fan.dim <= 3 for _ in range(3)]
    for fan in base + images:
        assert fan_mod.primitive_sets(fan) == _primitive_sets_by_subsets(fan)
    assert len(base + images) > 50


def test_primitive_sets_time_is_bounded_by_the_faces(deadline):
    # 60 rays in dimension 4: the scan of every subset of at most five rays
    # took 8 s; the extension of the 3,721 faces takes a fraction of that
    surface = _blown_up_plane(30)
    fan = catalog.product(surface, surface)
    fan_mod.require_accepted(fan)
    with deadline(1.0):
        found = fan_mod.primitive_sets(fan)
    # a product's primitive sets are those of its factors, rays numbered factor by factor
    own = fan_mod.primitive_sets(surface)
    assert len(own) == 30 * 27 // 2
    assert found == own + tuple(tuple(i + 30 for i in p) for p in own)


def test_primitive_relation_oracles(corpus):
    bl2 = corpus["bl2p2"]
    rel = {pd.set: pd for pd in fan_mod.primitive_data(bl2)}
    assert rel[(0, 1)].rhs_cone == (3,) and rel[(0, 1)].rhs_coeffs == (1,)
    assert rel[(0, 2)].rhs_cone == (4,)
    assert rel[(3, 4)].rhs_cone == (0,)
    assert rel[(1, 4)].rhs_cone == () and rel[(1, 4)].cls.pairings == (0, 1, 0, 0, 1)
    assert rel[(2, 3)].rhs_cone == ()
    p2rel = fan_mod.primitive_data(corpus["p2"])[0]
    assert p2rel.cls.pairings == (1, 1, 1) and p2rel.cls.degree == 3


def test_primitive_relation_rejects_nonprimitive(p2):
    with pytest.raises(PreconditionFailed):
        fan_mod.primitive_relation(p2, (0, 1))


@pytest.mark.parametrize("bad", [False, 0.0, None, "0"])
def test_primitive_relation_refuses_non_int_indices(p2, bad):
    with pytest.raises(ValueError, match="ray index"):
        fan_mod.primitive_relation(p2, (bad, 1, 2))


def ref_primitive_relation(fan, pset):
    """The relation found by scanning every cone, by dimension and then
    lexicographically, for the first that holds the ray sum of pset in its
    relative interior, solved over Fraction (a face's rays are independent)."""
    total = [sum(fan.rays[i][t] for i in pset) for t in range(fan.dim)]
    faces = {f for cone in fan.max_cones for k in range(fan.dim + 1) for f in combinations(cone, k)}
    for face in sorted(faces, key=lambda f: (len(f), f)):
        coeffs = _ref_solve_columns([fan.rays[i] for i in face], total)
        if coeffs is not None and all(c > 0 for c in coeffs):
            assert all(c.denominator == 1 for c in coeffs), (pset, face)
            pairings = [1 if i in pset else 0 for i in range(fan.n_rays)]
            for j, c in zip(face, coeffs):
                pairings[j] -= int(c)
            return face, tuple(int(c) for c in coeffs), tuple(pairings)
    raise AssertionError(f"the sum over {pset} lies in no cone")


def test_primitive_data_matches_face_scan(corpus, f2, p3, bundle3, gl_image):
    p1 = catalog.projective_space(1)
    fans = dict(
        corpus,
        f2=f2,
        p3=p3,
        bundle3=bundle3,
        p1x4=catalog.product(p1, p1, p1, p1),
        bl3p2xp1=catalog.product(catalog.blowup_p2_three(), p1),
    )
    for name in list(fans):
        rng = random.Random(name)
        for k in range(3):
            fans[f"{name}@{k}"] = gl_image(fans[name], rng)
    for name, fan in fans.items():
        assert fan_mod.validate(fan).accepted, name
        for pd in fan_mod.primitive_data(fan):
            got = (pd.rhs_cone, pd.rhs_coeffs, pd.cls.pairings)
            assert got == ref_primitive_relation(fan, pd.set), (name, pd.set)


def _counting_inverses(monkeypatch):
    """The list that grows by one per call of lattice.integer_inverse."""
    calls = []
    inverse = lattice.integer_inverse
    monkeypatch.setattr(lattice, "integer_inverse", lambda m: calls.append(1) or inverse(m))
    return calls


@pytest.mark.parametrize("factors", ["p1x6", "bl3p2xbl3p2xp1"])
def test_one_from_scratch_inverse_per_fan(factors, monkeypatch):
    # validation inverts one maximal cone and gets the others across walls;
    # the primitive relations and the shelling's point functionals read
    # those inverses and solve nothing
    p1, bl3 = catalog.projective_space(1), catalog.blowup_p2_three()
    fan = catalog.product(*{"p1x6": (p1,) * 6, "bl3p2xbl3p2xp1": (bl3, bl3, p1)}[factors])
    calls = _counting_inverses(monkeypatch)
    clear_caches()
    assert fan_mod.validate(fan).accepted
    fan_mod.primitive_data(fan)
    cohomology.shelling(fan)
    assert len(calls) == 1
    assert len(fan.max_cones) == {"p1x6": 64, "bl3p2xbl3p2xp1": 72}[factors]


def test_cone_inverses_match_the_fraction_reference(
    corpus, f2, p3, bundle3, gl_image, ref_integer_inverse
):
    from test_cohomology import PRODUCT_FACTORS

    bl3 = catalog.blowup_p2_three()
    base = list(corpus.values()) + [f2, p3, bundle3]
    products = [catalog.product(*(make() for make in factors)) for factors in PRODUCT_FACTORS.values()]
    products.append(catalog.product(bl3, bl3, bl3))
    rng = random.Random(19)
    images = [gl_image(fan, rng) for fan in base for _ in range(3)]
    fans = base + products + images + [gl_image(fan, rng) for fan in products]
    # the walk's row sources on larger complexes: three images each of P^4,
    # P^5, P^2 x P^2 and (P^1)^4
    p1, p2 = catalog.projective_space(1), catalog.projective_plane()
    larger = [catalog.projective_space(4), catalog.projective_space(5)]
    larger += [catalog.product(p2, p2), catalog.product(p1, p1, p1, p1)]
    fans += [gl_image(fan, rng) for fan in larger for _ in range(3)]
    for fan in fans:
        for mu in fan.max_cones:
            mat = lattice.mat_from_columns(fan_mod.cone_generators(fan, mu))
            assert fan_mod.cone_inverse(fan, mu) == tuple(map(tuple, ref_integer_inverse(mat)))


def test_walk_plan_row_sources_name_the_far_cone_rays(corpus, threefolds):
    # each step of the complex's walk plan lists, per position of the far
    # cone, the near position of the same ray, or k for the ray it brings
    for fan in list(corpus.values()) + list(threefolds.values()):
        for near, steps in fan_mod._complex(fan).across.items():
            for k, (far, ray, sources) in enumerate(steps):
                assert sorted(sources) == list(range(fan.dim))
                assert [ray if t == k else near[t] for t in sources] == list(far)
                assert ray not in near and near[k] not in far


def test_validate_walk_reports_each_nonunimodular_cone_once(monkeypatch):
    calls = _counting_inverses(monkeypatch)
    clear_caches()
    # the first cone is fine; the walk reaches (1, 3), of determinant -2,
    # across the wall (1,) and inverts nothing more
    fan = Fan(2, ((1, 0), (0, 1), (-1, -2)), ((0, 1), (1, 2), (0, 2)))
    assert fan_mod.validate(fan).problems == ("cone (1, 3) is not unimodular",)
    assert len(calls) == 1
    # every cone has determinant 2: each is a root that fails from scratch
    calls.clear()
    fan = Fan(2, ((1, 1), (-1, 1), (-1, -1), (1, -1)), ((0, 1), (1, 2), (2, 3), (0, 3)))
    assert fan_mod.validate(fan).problems == (
        "cone (1, 2) is not unimodular",
        "cone (1, 4) is not unimodular",
        "cone (2, 3) is not unimodular",
        "cone (3, 4) is not unimodular",
    )
    assert len(calls) == 4


def test_relation_kernel_and_homogeneity(corpus, f2, p3, bundle3):
    for fan in list(corpus.values()) + [f2, p3, bundle3]:
        for pd in fan_mod.primitive_data(fan):
            fan_mod.curve_class(fan, pd.cls.pairings)  # kernel condition
            assert len(pd.set) == pd.cls.degree + sum(pd.rhs_coeffs)
            assert all(a >= 1 for a in pd.rhs_coeffs)


@pytest.mark.parametrize("bad", [1.2, True, "1"])
def test_curve_class_entries_must_be_int(p2, bad):
    with pytest.raises(ValueError, match="pairing"):
        CurveClass((bad, 1, 1))
    with pytest.raises(ValueError, match="pairing"):
        fan_mod.curve_class(p2, (bad, 1, 1))
    assert CurveClass([1, 1, 1]).pairings == (1, 1, 1)


def test_curve_class_checks(p2):
    with pytest.raises(NotEffective):
        fan_mod.curve_class(p2, (1, 0, 0))
    with pytest.raises(NotEffective):
        fan_mod.curve_class(p2, (1, 1))
    cls = fan_mod.curve_class(p2, (2, 2, 2))
    assert cls.degree == 6 and not cls.is_zero()
    assert (cls - cls).is_zero()
    assert cls.scaled(2).pairings == (4, 4, 4)


def test_star(p2, p1xp1):
    assert fan_mod.star(p2, ()) == p2
    ray_star = fan_mod.star(p2, (0,))
    assert ray_star.dim == 1 and ray_star.n_rays == 2
    assert fan_mod.star(p2, (0, 1)) == Fan(0, (), ((),))
    with pytest.raises(NotACone):
        fan_mod.star(p1xp1, (0, 1))
    factor = fan_mod.star(p1xp1, (0,))
    assert factor.dim == 1 and len(factor.max_cones) == 2


def test_star_counts_every_cone(corpus, threefolds):
    # the star of sigma has one maximal cone per maximal cone containing
    # sigma and one face per cone containing it (sigma itself gives the apex);
    # the threefolds include P^3
    for fan in list(corpus.values()) + list(threefolds.values()):
        cones = fan_mod.faces(fan)
        for sigma in cones:
            st = fan_mod.star(fan, sigma)
            assert fan_mod.validate(st).accepted, sigma
            assert st.dim == fan.dim - len(sigma)
            above = [c for c in cones if set(sigma) <= set(c)]
            assert len(fan_mod.faces(st)) == len(above)
            assert len(st.max_cones) == sum(1 for c in above if len(c) == fan.dim)


def test_star_of_a_ray_of_projective_space():
    for n in (2, 3, 4):
        pn, lower = catalog.projective_space(n), catalog.projective_space(n - 1)
        for i in range(pn.n_rays):
            assert fan_mod.is_isomorphic(fan_mod.star(pn, (i,)), lower)


def test_star_of_a_factor_cone(corpus, p3):
    # the star of a maximal cone of X in X x Y is Y, and that of Y's is X
    pairs = [
        (corpus["p2"], corpus["bl3p2"]),
        (corpus["bl1p2"], p3),
        (catalog.projective_space(1), corpus["bl2p2"]),
    ]
    for x, y in pairs:
        prod = catalog.product(x, y)
        for cone in x.max_cones:
            assert fan_mod.is_isomorphic(fan_mod.star(prod, cone), y)
        for cone in y.max_cones:
            shifted = tuple(i + x.n_rays for i in cone)
            assert fan_mod.is_isomorphic(fan_mod.star(prod, shifted), x)


def test_decompose_effective_greedy(p2, bl1p2):
    pd = fan_mod.primitive_data(p2)[0]
    assert fan_mod.decompose_effective(p2, pd.cls) == ((pd, 1),)
    doubled = fan_mod.decompose_effective(p2, pd.cls.scaled(2))
    assert doubled == ((pd, 2),)
    fiber = {d.set: d for d in fan_mod.primitive_data(bl1p2)}
    mixed = fiber[(0, 1)].cls + fiber[(2, 3)].cls
    counts = dict(fan_mod.decompose_effective(bl1p2, mixed))
    assert counts[fiber[(0, 1)]] == 1 and counts[fiber[(2, 3)]] == 1
    # ten thousand and one greedy subtractions stay within the budget
    assert fan_mod.decompose_effective(p2, CurveClass((10001,) * 3)) == ((pd, 10001),)


def test_decompose_effective_search_branch(bl3p2):
    rel = {pd.set: pd for pd in fan_mod.primitive_data(bl3p2)}
    beta = rel[(0, 1)].cls + rel[(4, 5)].cls
    negatives = tuple(i for i, b in enumerate(beta.pairings) if b < 0)
    assert not fan_mod.is_cone(bl3p2, negatives)  # forces the bounded search
    counts = dict(fan_mod.decompose_effective(bl3p2, beta))
    total = beta.scaled(0)
    for pd, c in counts.items():
        total = total + pd.cls.scaled(c)
    assert total == beta


def test_decompose_effective_rejects(p2, p1xp1):
    pd = fan_mod.primitive_data(p2)[0]
    with pytest.raises(NotEffective):
        fan_mod.decompose_effective(p2, pd.cls.scaled(-1))
    with pytest.raises(NotEffective):
        fan_mod.decompose_effective(p1xp1, CurveClass((-1, -1, 1, 1)))
    assert fan_mod.decompose_effective(p2, CurveClass((0, 0, 0))) == ()


def _exhaustive_decompose(fan, beta):
    """The effectivity search without prune, memo or budget, its greedy half
    _one_step_greedy: the reference the pruned search must match tuple for
    tuple."""
    fan_mod.require_accepted(fan)
    if len(beta.pairings) != fan.n_rays:
        raise NotEffective("pairing vector length does not match the ray count")
    fan_mod.curve_class(fan, beta.pairings)
    if beta.is_zero():
        return ()
    pdata = fan_mod.primitive_data(fan)
    negatives = tuple(i for i, b in enumerate(beta.pairings) if b < 0)
    if fan_mod.is_cone(fan, negatives):
        return _one_step_greedy(fan, beta)

    degree = beta.degree
    crude_cap = sum(abs(b) for b in beta.pairings) + 4

    def search(idx, remaining, budget):
        if all(x == 0 for x in remaining):
            return []
        if idx == len(pdata):
            return None
        pd = pdata[idx]
        deg = pd.cls.degree
        cap = budget // deg if deg > 0 else crude_cap
        for count in range(cap + 1):
            rem = tuple(r - count * p for r, p in zip(remaining, pd.cls.pairings))
            rest = search(idx + 1, rem, budget - count * deg if deg > 0 else budget)
            if rest is not None:
                return ([(pd, count)] if count else []) + rest
        return None

    if degree < 0 and all(pd.cls.degree > 0 for pd in pdata):
        raise NotEffective("negative degree")
    found = search(0, beta.pairings, max(degree, 0))
    if found is None:
        raise NotEffective("not a nonnegative combination of primitive classes")
    return tuple(found)


def _sweep_classes(fan, max_degree=4, max_a=3):
    """Every sum of primitive classes of degree <= max_degree, and every
    a*beta_i - beta_j with a <= max_a and degree >= 0."""
    classes = [pd.cls for pd in fan_mod.primitive_data(fan)]
    out = set()

    def sums(k, total):
        out.add(total)
        for j in range(k, len(classes)):
            if total.degree + classes[j].degree <= max_degree:
                sums(j, total + classes[j])

    sums(0, CurveClass((0,) * fan.n_rays))
    for i, bi in enumerate(classes):
        for j, bj in enumerate(classes):
            for a in range(1, max_a + 1):
                beta = bi.scaled(a) - bj
                if i != j and beta.degree >= 0:
                    out.add(beta)
    return sorted(out, key=lambda b: (b.degree, b.pairings))


def _outcome(decompose, fan, beta):
    try:
        return decompose(fan, beta)
    except NotEffective:
        return "not effective"


def test_decompose_effective_matches_exhaustive(corpus, p3):
    p2, p1 = catalog.projective_plane(), catalog.projective_space(1)
    fans = list(corpus.values()) + [
        p3,
        catalog.product(p2, p1),
        catalog.product(catalog.blowup_p2_three(), p1),
    ]
    searched = rejected = 0
    for fan in fans:
        for beta in _sweep_classes(fan):
            want = _outcome(_exhaustive_decompose, fan, beta)
            assert _outcome(fan_mod.decompose_effective, fan, beta) == want, beta
            negatives = tuple(i for i, b in enumerate(beta.pairings) if b < 0)
            searched += not fan_mod.is_cone(fan, negatives)
            rejected += want == "not effective"
    assert searched > 100 and rejected > 100  # both branches and both outcomes ran


def test_decompose_effective_large_multiple_is_fast(bl3p2, deadline):
    # k * (first + last primitive class) with k = 20: the unpruned search
    # took 6 s at k = 10 and did not finish within 50 s here
    rel = {pd.set: pd for pd in fan_mod.primitive_data(bl3p2)}
    beta = (rel[(0, 1)].cls + rel[(4, 5)].cls).scaled(20)
    assert beta.pairings == (20, 20, -20, -20, 20, 20)
    with deadline(1.0):
        found = fan_mod.decompose_effective(bl3p2, beta)
    assert found == ((rel[(0, 1)], 20), (rel[(4, 5)], 20))


def _blown_up_plane(n_rays):
    """P^2 blown up between neighbouring rays, in turn around the circle,
    until it has n_rays rays; a smooth complete surface."""
    rays = [(1, 0), (0, 1), (-1, -1)]
    k = 0
    while len(rays) < n_rays:
        a, b = rays[k], rays[(k + 1) % len(rays)]
        rays.insert(k + 1, (a[0] + b[0], a[1] + b[1]))
        k = (k + 2) % len(rays)
    m = len(rays)
    return Fan(2, tuple(rays), tuple(tuple(sorted((i, (i + 1) % m))) for i in range(m)))


def test_decompose_effective_is_not_bounded_by_recursion_depth():
    # 60 rays give 60 * 57 / 2 = 1710 primitive classes, one search level
    # each: a recursive search overran the default recursion limit of 1000
    fan = _blown_up_plane(60)
    pdata = fan_mod.primitive_data(fan)
    assert len(pdata) == 1710
    beta = pdata[0].cls + pdata[3].cls
    try:
        found = fan_mod.decompose_effective(fan, beta)
    except SearchBudgetExceeded:
        return
    total = beta.scaled(0)
    for pd, count in found:
        total = total + pd.cls.scaled(count)
    assert total == beta


def _per_suffix_sign_prune(fan):
    """Reference for fan._sign_prune: each suffix of the primitive classes
    scanned on its own, for the rays none of them pairs positively with and
    those none pairs negatively with."""
    pdata = fan_mod.primitive_data(fan)
    nonpos, nonneg = [], []
    for k in range(len(pdata) + 1):
        rest = [pd.cls.pairings for pd in pdata[k:]]
        nonpos.append(tuple(i for i in range(fan.n_rays) if all(p[i] <= 0 for p in rest)))
        nonneg.append(tuple(i for i in range(fan.n_rays) if all(p[i] >= 0 for p in rest)))
    return tuple(nonpos), tuple(nonneg)


def test_sign_table_matches_the_per_suffix_scan(corpus, f2, p3):
    # built in one backward pass; F2 and the blown-up planes are not Fano,
    # and the 60-ray plane has 1710 primitive classes
    p1 = catalog.projective_space(1)
    fans = [*corpus.values(), f2, p3, catalog.product(catalog.blowup_p2_three(), p1)]
    fans += [_blown_up_plane(m) for m in (7, 10, 14, 60)]
    for fan in fans:
        assert fan_mod._sign_prune(fan) == _per_suffix_sign_prune(fan), fan
    assert len(fan_mod._sign_prune(fans[-1])[0]) == 1711


def test_decompose_effective_node_budget(p2, bl1p2, bl3p2, monkeypatch):
    rel = {pd.set: pd for pd in fan_mod.primitive_data(bl3p2)}
    beta = rel[(0, 1)].cls + rel[(4, 5)].cls
    monkeypatch.setattr(fan_mod, "SEARCH_NODE_BUDGET", 1)
    with pytest.raises(SearchBudgetExceeded) as err:
        fan_mod.decompose_effective(bl3p2, beta)
    assert not isinstance(err.value, NotEffective)
    # the greedy branch counts its batches against the same budget: a
    # multiple of one class is one batch, two distinct classes are two
    line = fan_mod.primitive_data(p2)[0]
    assert fan_mod.decompose_effective(p2, line.cls) == ((line, 1),)
    assert fan_mod.decompose_effective(p2, line.cls.scaled(2)) == ((line, 2),)
    fiber = {d.set: d for d in fan_mod.primitive_data(bl1p2)}
    with pytest.raises(SearchBudgetExceeded):
        fan_mod.decompose_effective(bl1p2, fiber[(0, 1)].cls + fiber[(2, 3)].cls)


def _one_step_greedy(fan, beta):
    """Reference for the greedy branch: one subtraction per step of the
    first primitive class whose set lies in the positive support."""
    pdata = fan_mod.primitive_data(fan)
    counts = {}
    current = list(beta.pairings)
    while any(current):
        positives = {i for i, b in enumerate(current) if b > 0}
        chosen = next((pd for pd in pdata if set(pd.set) <= positives), None)
        if chosen is None:
            raise NotEffective("no primitive set lies in the positive support")
        counts[chosen] = counts.get(chosen, 0) + 1
        current = [x - y for x, y in zip(current, chosen.cls.pairings)]
    return tuple(sorted(counts.items(), key=lambda item: item[0].set))


def test_greedy_batches_match_one_step_loop(corpus):
    # seeded sums of primitive classes, some with one class taken away, that
    # take the greedy branch; F2 and the blown-up planes are not Fano, so
    # there an earlier class can turn eligible in the middle of a batch
    p1 = catalog.projective_space(1)
    fans = list(corpus.values()) + [
        catalog.projective_space(3),
        catalog.product(catalog.blowup_p2_three(), p1),
        catalog.product(p1, p1, p1),
        catalog.hirzebruch(2),
        _blown_up_plane(7),
        _blown_up_plane(10),
    ]
    rng = random.Random(45)
    compared = 0
    for fan in fans:
        pdata = fan_mod.primitive_data(fan)
        for _ in range(250):
            beta = CurveClass((0,) * fan.n_rays)
            for _ in range(rng.randint(1, 4)):
                beta = beta + rng.choice(pdata).cls.scaled(rng.randint(1, 30))
            if rng.random() < 0.3:
                beta = beta - rng.choice(pdata).cls.scaled(rng.randint(1, 10))
            negatives = tuple(i for i, b in enumerate(beta.pairings) if b < 0)
            if not fan_mod.is_cone(fan, negatives):
                continue
            want = _outcome(_one_step_greedy, fan, beta)
            assert _outcome(fan_mod.decompose_effective, fan, beta) == want, beta
            compared += 1
    assert compared >= 2000


def test_the_greedy_branch_decomposes_every_class_whose_negative_support_is_a_cone(
    corpus, p3, bundle3, f2
):
    # the argument in decompose_effective's docstring: the positive support
    # of such a class holds a primitive set, and subtracting its class keeps
    # the negative support in the cone, so the greedy branch never stalls.
    # Each class takes seeded entries in 0..3 off a maximal cone mu and the
    # entries on mu that make it a curve class; F2, F3, F5 and the blown-up
    # planes are not Fano
    p1, p2, bl3 = catalog.projective_space(1), catalog.projective_plane(), catalog.blowup_p2_three()
    fans = [
        *corpus.values(), p3, catalog.product(p2, p1), bundle3, f2, catalog.hirzebruch(3),
        catalog.hirzebruch(5), *(_blown_up_plane(m) for m in (7, 10, 14)),
        catalog.product(bl3, p1), catalog.product(f2, p1), catalog.product(bl3, bl3),
    ]
    rng = random.Random(27)
    for fan in fans:
        for _ in range(300):
            mu = rng.choice(fan.max_cones)
            pairings = [0 if i in mu else rng.randint(0, 3) for i in range(fan.n_rays)]
            point = [sum(b * ray[t] for b, ray in zip(pairings, fan.rays)) for t in range(fan.dim)]
            for i, x in zip(mu, fan_mod.coords_in_basis(fan, mu, point)):
                pairings[i] = -x
            beta = CurveClass(pairings)
            total = beta.scaled(0)
            for pd, count in fan_mod.decompose_effective(fan, beta):
                assert count > 0
                total = total + pd.cls.scaled(count)
            assert total == beta, (fan, beta)


def test_is_isomorphic(corpus, p3):
    hexagon2 = Fan(
        2,
        ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)),
        ((0, 2), (2, 5), (1, 5), (1, 3), (3, 4), (0, 4)),
    )
    assert fan_mod.validate(hexagon2).accepted
    assert fan_mod.is_isomorphic(hexagon2, corpus["bl3p2"])
    assert fan_mod.is_isomorphic(catalog.hirzebruch(1), corpus["bl1p2"])
    assert not fan_mod.is_isomorphic(catalog.hirzebruch(2), corpus["p1xp1"])
    assert not fan_mod.is_isomorphic(corpus["p2"], corpus["p1xp1"])
    with pytest.raises(DimensionMismatch):
        fan_mod.is_isomorphic(corpus["p2"], p3)
    for fan in corpus.values():
        assert fan_mod.is_isomorphic(fan, fan)


def test_zero_dimensional_fans_are_isomorphic():
    # the point: no rays and one maximal cone, the empty one
    point = Fan(0, (), ((),))
    assert fan_mod.validate(point).accepted
    assert fan_mod.is_isomorphic(point, Fan(0, (), ((),)))


def test_decompose_effective_refuses_a_beta_that_is_no_curve_class(p2):
    # a tuple of pairings is refused by name, not read through .pairings
    with pytest.raises(ValueError, match=r"^beta \(1, 1, 1\) is not a CurveClass$"):
        fan_mod.decompose_effective(p2, (1, 1, 1))
    assert fan_mod.decompose_effective(p2, CurveClass((1, 1, 1)))


def test_clear_caches_empties_the_context_and_recomputes_the_same(bl3p2):
    def snapshot():
        basis = [cohomology.basis_class(bl3p2, i) for i in range(len(cohomology.basis_tau(bl3p2)))]
        monos = [m for d in range(3) for m in combinations_with_replacement(range(6), d)]
        return (
            fano.classify(bl3p2),
            [cohomology.normal_form(bl3p2, {m: 1}) for m in monos],
            [quantum.quantum_product(bl3p2, a, b) for a in basis for b in basis],
        )

    before = snapshot()
    ring = quantum._qring(bl3p2)
    assert ring.pair_cache  # the ring the snapshot filled
    clear_caches()
    assert fan_mod._DERIVED == {}
    assert snapshot() == before
    assert quantum._qring(bl3p2) is not ring


def test_per_fan_memoizes_values_and_not_exceptions(p2, f2):
    calls = []

    def flaky(fan):
        calls.append(fan)
        if len(calls) == 1:
            raise PreconditionFailed("the first call fails")
        return ()

    memoized = fan_mod.per_fan(flaky)
    with pytest.raises(PreconditionFailed):
        memoized(p2)
    assert memoized(p2) == () and memoized(p2) == ()
    assert len(calls) == 2  # the exception was not stored, the falsy value was

    for _ in range(2):
        with pytest.raises(NotFano):
            cohomology._ring(f2)
    assert cohomology._CohomologyRing not in fan_mod._DERIVED[f2]
    rejected = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2)))
    for _ in range(2):
        with pytest.raises(FanNotAccepted):
            fano.classify(rejected)
    assert fan_mod.validate(rejected) is fan_mod.validate(rejected)
    point = Fan(0, (), ((),))
    assert fan_mod.primitive_sets(point) == ()
    assert fan_mod._DERIVED[point][fan_mod.primitive_sets.__wrapped__] == ()


# an argument for each parameter of an export that takes a fan first, valid on
# P^2, so that the wrong-typed fan is the first thing refused
_P2_ARGUMENTS = {
    "ray_indices": (0,), "pairings": (1, 1, 1), "pset": (0, 1, 2), "sigma": (0,), "mu": (0, 1),
    "wall": (0,), "rho_index": 0, "d": 0, "index": 0, "degree": 1, "monomial": (0,), "rng": None,
    "order": None, "terms": [], "poly": {(): 1}, "beta": CurveClass((1, 1, 1)),
    "a": cohomology.CohomologyClass({0: 1}), "b": cohomology.CohomologyClass({0: 1}),
    "c": cohomology.CohomologyClass({0: 1}), "cls": cohomology.CohomologyClass({0: 1}),
    "qc": quantum.QuantumClass(), "exc": None,
}
_FAN_FIRST = sorted(
    name
    for name in toricqh.__all__
    if inspect.isfunction(getattr(toricqh, name))
    and next(iter(inspect.signature(getattr(toricqh, name)).parameters), None) == "fan"
)


def _export_call(name):
    function = getattr(toricqh, name)
    rest = list(inspect.signature(function).parameters)[1:]
    return lambda p2, bl1p2: function("p2", *(_P2_ARGUMENTS[p] for p in rest))


def _blow_down_with(wrap):
    return lambda p2, bl1p2: fano.blow_down(bl1p2, wrap(fano.primitive_exceptional_sets(bl1p2)[0]))


# (id, call on the p2 and bl1p2 fixtures, the argument's name, its type)
_WRONG_TYPED = [
    *((name, _export_call(name), "fan", "Fan") for name in _FAN_FIRST),
    ("is_isomorphic-a", lambda p2, bl1p2: fan_mod.is_isomorphic("p2", p2), "fan a", "Fan"),
    ("is_isomorphic-b", lambda p2, bl1p2: fan_mod.is_isomorphic(p2, "p2"), "fan b", "Fan"),
    ("product", lambda p2, bl1p2: catalog.product(p2, "p1"), "factor", "Fan"),
    ("blow_down-None", _blow_down_with(lambda exc: None), "exc", "ExceptionalData"),
    # a plain tuple equals the record, so it used to pass the membership test
    ("blow_down-tuple", _blow_down_with(tuple), "exc", "ExceptionalData"),
    (
        "projective_space",
        lambda p2, bl1p2: catalog.projective_space(2.0),
        "projective space dimension",
        "integer",
    ),
    ("hirzebruch", lambda p2, bl1p2: catalog.hirzebruch("1"), "twist", "integer"),
]


@pytest.mark.parametrize(
    "call, name, kind", [case[1:] for case in _WRONG_TYPED], ids=[case[0] for case in _WRONG_TYPED]
)
def test_wrong_typed_fans_records_and_integers_are_refused_by_name(p2, bl1p2, call, name, kind):
    # each used to end in AttributeError or TypeError
    assert len(_FAN_FIRST) == 44  # the walk reaches every export that takes a fan first
    with pytest.raises(ValueError, match=f"^{name} .* is not an? {kind}$"):
        call(p2, bl1p2)


@pytest.mark.parametrize("call", [
    lambda: fano.classify([1]),
    lambda: fano.classify({}),
    lambda: fano.classify(set()),
    lambda: fan_mod.primitive_data([1]),
    lambda: cohomology.basis_tau({}),
], ids=["classify-list", "classify-dict", "classify-set", "primitive_data-list", "basis_tau-dict"])
def test_unhashable_fan_arguments_are_refused_by_name(call):
    # the per-fan memo's lookup used to end in TypeError: unhashable type
    with pytest.raises(ValueError, match=r"^fan .* is not a Fan$"):
        call()
