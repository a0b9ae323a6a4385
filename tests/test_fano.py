import random
from collections import Counter
from itertools import combinations

import pytest

from toricqh import catalog, lattice
from toricqh import fan as fan_mod
from toricqh import fano
from toricqh.errors import (
    BlowDownInvalid,
    FanNotAccepted,
    IndexOutOfRange,
    NotACone,
    NotInClass,
    NotInTier,
)
from toricqh.fan import CurveClass, Fan
from toricqh.fano import ExceptionalData, Tier


def test_classify_corpus_full_class(corpus):
    for fan in corpus.values():
        ct = fano.classify(fan)
        assert ct.tier is Tier.FULL_CLASS
        for cert in ct.certificates:
            assert cert.coefficient_sum <= 1
            assert cert.rhs_multiplicity <= 1


def test_classify_hirzebruch_two(f2):
    ct = fano.classify(f2)
    assert ct.tier is Tier.NOT_FANO
    assert ct.tier.render() == "NotFano"
    cert = ct.certificates[0]
    assert cert.pset == (0, 1)
    assert cert.coefficient_sum == 2
    assert cert.rhs_cone == (2,)
    assert cert.rhs_multiplicity == 0


def test_classify_twisted_bundle(bundle3):
    ct = fano.classify(bundle3)
    assert ct.tier is Tier.FANO
    sums = {cert.pset: cert.coefficient_sum for cert in ct.certificates}
    assert sums == {(0, 1, 2): 2, (3, 4): 0}


def test_coordinate_test_matches_tier(corpus, f2, p3, bundle3):
    for fan in list(corpus.values()) + [f2, p3, bundle3]:
        ok, witness = fano.check_condition_iii(fan)
        assert ok == (fano.classify(fan).tier >= Tier.SUBVARIETIES_FANO)
        assert (witness is None) == ok


def test_coordinate_test_witnesses(f2, bundle3):
    ok, witness = fano.check_condition_iii(f2)
    assert not ok and witness == ((0, 2), 1, (-1, 2))
    ok, witness = fano.check_condition_iii(bundle3)
    assert not ok and witness == ((0, 1, 3), 2, (-1, -1, 2))


def test_exceptional_sets_oracles(corpus, p3):
    by_fan = {
        name: {e.set: e.exc for e in fano.exceptional_sets(fan)}
        for name, fan in corpus.items()
    }
    assert by_fan["p2"] == {}
    assert by_fan["p1xp1"] == {}
    assert by_fan["bl1p2"] == {(0, 1): 3}
    assert by_fan["bl2p2"] == {(0, 1): 3, (0, 2): 4, (3, 4): 0}
    assert by_fan["bl3p2"] == {
        (0, 1): 3, (0, 2): 5, (1, 2): 4,
        (3, 4): 1, (3, 5): 0, (4, 5): 2,
    }
    assert fano.exceptional_sets(p3) == ()


def test_exceptional_class_pairings(bl3p2):
    for e in fano.exceptional_sets(bl3p2):
        expected = [0] * bl3p2.n_rays
        for i in e.set:
            expected[i] = 1
        expected[e.exc] = -1
        assert e.cls.pairings == tuple(expected)
        assert e.cls.degree == len(e.set) - 1


def test_exceptional_sets_tier_gate(bundle3):
    with pytest.raises(NotInTier):
        fano.exceptional_sets(bundle3)


def test_special_exceptional_sets(bl1p2, bl3p2):
    assert len(fano.special_exceptional_sets(bl1p2, (0, 3))) == 1
    specials = fano.special_exceptional_sets(bl3p2, (0, 3))
    assert {(e.set, e.exc) for e in specials} == {((0, 1), 3), ((3, 5), 0)}
    with pytest.raises(NotACone):
        fano.special_exceptional_sets(bl3p2, (0, 1))


def test_family_predicates_concrete(bl3p2):
    specials = fano.special_exceptional_sets(bl3p2, (0, 3))
    both = fano.family_predicates(specials)
    assert both == {"distinct_exc": True, "no_overlaps": False, "no_cycles": False}
    for e in specials:
        single = fano.family_predicates([e])
        assert single == {"distinct_exc": True, "no_overlaps": True, "no_cycles": True}
    assert fano.family_predicates([])["no_cycles"]


def test_no_overlaps_implies_no_cycles(corpus):
    for fan in corpus.values():
        for sigma in fan.max_cones:
            specials = fano.special_exceptional_sets(fan, sigma)
            for size in range(len(specials) + 1):
                for family in combinations(specials, size):
                    preds = fano.family_predicates(family)
                    if preds["no_overlaps"]:
                        assert preds["no_cycles"]


def test_primitive_exceptional_sets(corpus):
    counts = {
        name: len(fano.primitive_exceptional_sets(fan))
        for name, fan in corpus.items()
    }
    assert counts == {"p2": 0, "p1xp1": 0, "bl1p2": 1, "bl2p2": 3, "bl3p2": 6}
    for fan in corpus.values():
        prims = {pd.set for pd in fan_mod.primitive_data(fan)}
        for e in fano.primitive_exceptional_sets(fan):
            assert e.set in prims


def test_blow_down_oracles(corpus):
    bl1, bl2 = corpus["bl1p2"], corpus["bl2p2"]
    (only,) = fano.primitive_exceptional_sets(bl1)
    assert fan_mod.is_isomorphic(fano.blow_down(bl1, only), corpus["p2"])
    by_exc = {e.exc: e for e in fano.primitive_exceptional_sets(bl2)}
    assert fan_mod.is_isomorphic(fano.blow_down(bl2, by_exc[3]), bl1)
    assert fan_mod.is_isomorphic(fano.blow_down(bl2, by_exc[0]), corpus["p1xp1"])


def test_blow_down_gates(f2, bundle3, p1xp1, bl1p2):
    fake = ExceptionalData((0, 1), 2, CurveClass((1, 1, -1, 0)))
    with pytest.raises(NotInClass):
        fano.blow_down(f2, fake)
    with pytest.raises(NotInClass):
        fano.blow_down(bundle3, ExceptionalData((0, 1), 3, CurveClass((1, 1, 0, -1, 0))))
    with pytest.raises(BlowDownInvalid):
        fano.blow_down(p1xp1, ExceptionalData((0, 2), 1, CurveClass((1, 0, 1, 0))))
    (real,) = fano.primitive_exceptional_sets(bl1p2)
    off = ExceptionalData(real.set, real.exc, real.cls.scaled(2))
    with pytest.raises(BlowDownInvalid):
        fano.blow_down(bl1p2, off)


def test_blow_down_tower_default(corpus):
    tower = fano.blow_down_tower(corpus["bl3p2"])
    assert [f.n_rays for f in tower] == [6, 5, 4, 3]
    for stage in tower:
        assert fano.classify(stage).tier is Tier.FULL_CLASS
    ok, dims = fano.is_product_of_projective_spaces(tower[-1])
    assert ok and dims == (2,)
    assert fano.blow_down_tower(corpus["p2"]) == [corpus["p2"]]
    assert fano.blow_down_tower(corpus["p1xp1"]) == [corpus["p1xp1"]]


def test_blow_down_tower_with_order(bl3p2, bl1p2):
    tower = fano.blow_down_tower(bl3p2, order=(0, 1))
    assert [f.n_rays for f in tower] == [6, 5, 4, 3]
    assert fano.is_product_of_projective_spaces(tower[-1])[0]
    explicit = fano.blow_down_tower(bl3p2, order=(3, 4, 5))
    assert [f.n_rays for f in explicit] == [6, 5, 4, 3]
    with pytest.raises(BlowDownInvalid):
        fano.blow_down_tower(bl1p2, order=(0,))
    with pytest.raises(IndexOutOfRange):
        fano.blow_down_tower(bl1p2, order=(9,))
    for bad in (True, 3.0, None, "3"):
        with pytest.raises(ValueError, match="ray index"):
            fano.blow_down_tower(bl3p2, order=[bad])


def test_is_product_of_projective_spaces(corpus, p3, bl1p2):
    assert fano.is_product_of_projective_spaces(corpus["p2"]) == (True, (2,))
    assert fano.is_product_of_projective_spaces(corpus["p1xp1"]) == (True, (1, 1))
    assert fano.is_product_of_projective_spaces(p3) == (True, (3,))
    assert fano.is_product_of_projective_spaces(bl1p2) == (False, ())
    p1xp2 = Fan(
        3,
        ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1)),
        tuple((a,) + rest for a in (0, 1) for rest in ((2, 3), (2, 4), (3, 4))),
    )
    assert fano.is_product_of_projective_spaces(p1xp2) == (True, (1, 2))


def _enumerated_exceptional_sets(fan):
    """The exceptional sets by the subset search: every set of 2 to n rays,
    in order of (size, set), that is independent and sums to another ray."""
    if fano.classify(fan).tier < Tier.SUBVARIETIES_FANO:
        raise NotInTier("exceptional sets need the SubvarietiesFano tier")
    ray_index = {ray: i for i, ray in enumerate(fan.rays)}
    out = []
    for k in range(2, fan.dim + 1):
        for cand in combinations(range(fan.n_rays), k):
            vecs = [fan.rays[i] for i in cand]
            hit = ray_index.get(tuple(map(sum, zip(*vecs))))
            if hit is not None and hit not in cand and lattice.rank(vecs) == k:
                cls = fan_mod._relation_class(fan, cand, ((hit, 1),))
                out.append(ExceptionalData(cand, hit, cls))
    return tuple(out)


def _enumerated_primitive_exceptional_sets(fan):
    """The blow-down data by the subset search: the exceptional sets
    that are primitive sets whose relation has their exceptional ray, with
    coefficient 1, as its whole right-hand side."""
    prims = {pd.set: pd for pd in fan_mod.primitive_data(fan)}
    return tuple(
        e
        for e in _enumerated_exceptional_sets(fan)
        if e.set in prims and (prims[e.set].rhs_cone, prims[e.set].rhs_coeffs) == ((e.exc,), (1,))
    )


def _blow_down_fans(gl_image):
    from test_cohomology import PRODUCT_FACTORS

    p1, p2 = catalog.projective_space(1), catalog.projective_plane()
    fans = dict(catalog.corpus())
    fans.update(
        p3=catalog.projective_space(3),
        p2xp1=catalog.product(p2, p1),
        p1x3=catalog.product(p1, p1, p1),
        bl3p2xp1=catalog.product(catalog.blowup_p2_three(), p1),
    )
    for k, fan in enumerate(catalog.census(2, 8)):
        if fano.classify(fan).tier is Tier.FULL_CLASS:
            fans[f"census{k}"] = fan
    for name, factors in PRODUCT_FACTORS.items():
        fans[name] = catalog.product(*(make() for make in factors))
    for name in list(fans):
        rng = random.Random(name)
        for k in range(3):
            fans[f"{name}@{k}"] = gl_image(fans[name], rng)
    return fans


def test_primitive_exceptional_sets_match_the_enumeration(gl_image):
    # read off the primitive relations, the blow-down data equals the
    # filter of the subset enumeration, order included, at every stage of
    # the default tower; each stage is the blow-down of the reference's
    # first choice, the exceptional ray of smallest index
    stages = 0
    for name, fan in _blow_down_fans(gl_image).items():
        tower = fano.blow_down_tower(fan)
        for k, stage in enumerate(tower):
            got = fano.primitive_exceptional_sets(stage)
            want = _enumerated_primitive_exceptional_sets(stage)
            assert got == want, (name, k)
            if k + 1 < len(tower):
                chosen = min(want, key=lambda e: e.exc)
                assert tower[k + 1] == fano.blow_down(stage, chosen), (name, k)
            else:
                assert want == (), name
            stages += 1
    assert stages == 192


def test_primitive_exceptional_sets_keep_the_tier_gate(f2, bundle3):
    # below SubvarietiesFano both routes refuse; a rejected fan is refused first
    for fan in (f2, bundle3):
        assert fano.classify(fan).tier < Tier.SUBVARIETIES_FANO
        for route in (fano.primitive_exceptional_sets, _enumerated_primitive_exceptional_sets):
            with pytest.raises(NotInTier):
                route(fan)
    rejected = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2)))
    with pytest.raises(FanNotAccepted):
        fano.primitive_exceptional_sets(rejected)


def test_star_subdivisions_reach_sixteen_fano_threefolds(fano_threefolds, bundle3, shared_head):
    # with the twisted bundle and X they are the 18 classes of toric Fano
    # threefolds of Batyrev and Watanabe-Watanabe
    fans = list(fano_threefolds.values())
    assert len(fans) == 16
    assert Counter(fan.n_rays for fan in fans) == {4: 1, 5: 3, 6: 6, 7: 4, 8: 2}
    assert Counter(fano.classify(fan).tier for fan in fans) == {
        Tier.FULL_CLASS: 12, Tier.SUBVARIETIES_FANO: 3, Tier.FANO: 1,
    }
    for a, b in combinations(fans + [bundle3, shared_head["x"]], 2):
        assert a.n_rays != b.n_rays or not fan_mod.is_isomorphic(a, b)
    # the only fans of the suite with exceptional sets that are not
    # primitive sets, which the substitution step alone finds
    beyond = {}
    for name, fan in fano_threefolds.items():
        if fano.classify(fan).tier >= Tier.SUBVARIETIES_FANO:
            prims = set(fan_mod.primitive_sets(fan))
            count = sum(e.set not in prims for e in fano.exceptional_sets(fan))
            if count:
                beyond[name] = count
    assert beyond == {
        "p3.12.35": 1, "p3.12.35.45": 2, "p2xp1.12.34": 1, "p2xp1.12.46": 1, "p2xp1.12.34.56": 2,
    }


def _special_reference(sets, sigma):
    """The sets special for sigma: all members but one and the exceptional
    ray lie in sigma."""
    return tuple(e for e in sets if e.exc in sigma and sum(i not in sigma for i in e.set) <= 1)


def test_exceptional_sets_match_the_subset_search(
    gl_image, threefolds, shared_head, fano_threefolds
):
    # the closure of the primitive exceptional sets equals the subset search,
    # value and order, and so do the blow-down data and the special sets of
    # every face; the default tower of a FullClass fan blows down the
    # reference's first choice at every stage
    from test_cohomology import PRODUCT_FACTORS

    fans = {**catalog.corpus(), **threefolds, **shared_head, **fano_threefolds}
    for name, factors in PRODUCT_FACTORS.items():
        fans[name] = catalog.product(*(make() for make in factors))
    for k, fan in enumerate(catalog.census(2, 8)):
        fans[f"census{k}"] = fan
    for name in list(fans):
        rng = random.Random(name)
        for k in range(2):
            fans[f"{name}@{k}"] = gl_image(fans[name], rng)
    checked = refused = sets = beyond = 0
    for name, fan in fans.items():
        tier = fano.classify(fan).tier
        if tier < Tier.SUBVARIETIES_FANO:
            for route in (fano.exceptional_sets, _enumerated_exceptional_sets):
                with pytest.raises(NotInTier):
                    route(fan)
            refused += 1
            continue
        want = _enumerated_exceptional_sets(fan)
        assert fano.exceptional_sets(fan) == want, name
        assert fano.primitive_exceptional_sets(fan) == _enumerated_primitive_exceptional_sets(fan), name
        for sigma in fan_mod.faces(fan):
            assert fano.special_exceptional_sets(fan, sigma) == _special_reference(want, sigma), (
                name, sigma,
            )
        if tier is Tier.FULL_CLASS:
            tower = fano.blow_down_tower(fan)
            for stage, below in zip(tower, tower[1:]):
                chosen = min(_enumerated_primitive_exceptional_sets(stage), key=lambda e: e.exc)
                assert below == fano.blow_down(stage, chosen), name
            assert _enumerated_primitive_exceptional_sets(tower[-1]) == (), name
        prims = set(fan_mod.primitive_sets(fan))
        checked += 1
        sets += len(want)
        beyond += sum(e.set not in prims for e in want)
    assert (checked, refused, sets, beyond) == (108, 3, 297, 21)
