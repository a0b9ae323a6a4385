import random
from itertools import combinations

import pytest

from toricqh import catalog, clear_caches, lattice
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


@pytest.mark.parametrize("factors", ["p1x6", "bl3p2xbl3p2xp1"])
def test_exceptional_sets_rank_only_independent_candidates(
    factors, monkeypatch, ref_rational_rank
):
    # a ray sum equal to a member leaves the other rays summing to zero; such
    # candidates are dropped before any elimination runs
    p1, bl3 = catalog.projective_space(1), catalog.blowup_p2_three()
    fan = catalog.product(*{"p1x6": (p1,) * 6, "bl3p2xbl3p2xp1": (bl3, bl3, p1)}[factors])
    ray_index = {ray: i for i, ray in enumerate(fan.rays)}
    want = []
    for k in range(2, fan.dim + 1):
        for cand in combinations(range(fan.n_rays), k):
            vecs = [fan.rays[i] for i in cand]
            hit = ray_index.get(tuple(map(sum, zip(*vecs))))
            if hit is not None and ref_rational_rank(vecs) == k:
                want.append((cand, hit))
    clear_caches()
    fano.classify(fan)
    calls = []
    rank = lattice.rank
    monkeypatch.setattr(lattice, "rank", lambda rows: calls.append(1) or rank(rows))
    found = fano.exceptional_sets(fan)
    assert [(e.set, e.exc) for e in found] == want
    assert (len(found), len(calls)) == {"p1x6": (0, 0), "bl3p2xbl3p2xp1": (12, 84)}[factors]


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


def _enumerated_primitive_exceptional_sets(fan):
    """The blow-down data by the subset enumeration: the exceptional sets
    that are primitive sets whose relation has their exceptional ray, with
    coefficient 1, as its whole right-hand side."""
    prims = {pd.set: pd for pd in fan_mod.primitive_data(fan)}
    return tuple(
        e
        for e in fano.exceptional_sets(fan)
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
