import pytest

from toricqh import catalog, fan as fan_mod, fano
from toricqh.fano import Tier


def test_generators_accepted():
    for n in (1, 2, 3, 4):
        fan_mod.require_accepted(catalog.projective_space(n))
    for a in (0, 1, 2, 3):
        fan_mod.require_accepted(catalog.hirzebruch(a))
    fan_mod.require_accepted(catalog.twisted_bundle_threefold())
    with pytest.raises(ValueError):
        catalog.projective_space(0)
    with pytest.raises(ValueError):
        catalog.hirzebruch(-1)


def test_hirzebruch_tiers():
    assert fano.classify(catalog.hirzebruch(0)).tier is Tier.FULL_CLASS
    assert fano.classify(catalog.hirzebruch(1)).tier is Tier.FULL_CLASS
    assert fano.classify(catalog.hirzebruch(2)).tier is Tier.NOT_FANO
    assert fano.classify(catalog.hirzebruch(3)).tier is Tier.NOT_FANO
    assert fan_mod.is_isomorphic(catalog.hirzebruch(0), catalog.product_p1p1())


def test_corpus_contents(corpus):
    assert set(corpus) == {"p2", "p1xp1", "bl1p2", "bl2p2", "bl3p2"}
    for fan in corpus.values():
        assert fano.classify(fan).tier is Tier.FULL_CLASS


def test_census_growth():
    assert catalog.census(2, 2) == []
    assert [f.n_rays for f in catalog.census(2, 3)] == [3]
    assert [f.n_rays for f in catalog.census(2, 4)] == [3, 4, 4]
    assert [f.n_rays for f in catalog.census(2, 5)] == [3, 4, 4, 5]
    assert [f.n_rays for f in catalog.census(2, 6)] == [3, 4, 4, 5, 6]
    with pytest.raises(ValueError):
        catalog.census(3, 6)


@pytest.mark.parametrize("args", [(2.0, 6), (2, True), (2, 6.5), (True, 6), ("2", 6)])
def test_census_refuses_non_int_arguments(args):
    # nothing is coerced: a float or a bool is no dimension or ray bound
    with pytest.raises(ValueError, match="is not an integer"):
        catalog.census(*args)


def test_census_classes_are_distinct_and_full(corpus):
    reps = catalog.census(2, 6)
    for rep in reps:
        assert fano.classify(rep).tier is Tier.FULL_CLASS
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            assert not fan_mod.is_isomorphic(a, b)
    matched = set()
    for rep in reps:
        hits = [name for name, fan in corpus.items() if fan_mod.is_isomorphic(rep, fan)]
        assert len(hits) == 1
        matched.add(hits[0])
    assert matched == set(corpus)
