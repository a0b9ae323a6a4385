import json

import pytest

from toricqh import catalog, fan as fan_mod
from toricqh.errors import (
    DimensionMismatch,
    FanNotAccepted,
    IndexOutOfRange,
    LocateFailure,
    NotACone,
    NotEffective,
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
    assert any("determinant" in p for p in report.problems)


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


def test_decompose_effective_greedy(p2, bl1p2):
    pd = fan_mod.primitive_data(p2)[0]
    assert fan_mod.decompose_effective(p2, pd.cls) == ((pd, 1),)
    doubled = fan_mod.decompose_effective(p2, pd.cls.scaled(2))
    assert doubled == ((pd, 2),)
    fiber = {d.set: d for d in fan_mod.primitive_data(bl1p2)}
    mixed = fiber[(0, 1)].cls + fiber[(2, 3)].cls
    counts = dict(fan_mod.decompose_effective(bl1p2, mixed))
    assert counts[fiber[(0, 1)]] == 1 and counts[fiber[(2, 3)]] == 1


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
    """The effectivity search without prune, memo or budget: the reference
    the pruned search must match tuple for tuple."""
    fan_mod.require_accepted(fan)
    if len(beta.pairings) != fan.n_rays:
        raise NotEffective("pairing vector length does not match the ray count")
    fan_mod.curve_class(fan, beta.pairings)
    if beta.is_zero():
        return ()
    pdata = fan_mod.primitive_data(fan)
    negatives = tuple(i for i, b in enumerate(beta.pairings) if b < 0)
    if fan_mod.is_cone(fan, negatives):
        counts = {}
        current = list(beta.pairings)
        guard = 0
        while any(x != 0 for x in current):
            guard += 1
            if guard > 10_000:
                raise LocateFailure("greedy decomposition failed to terminate")
            positives = {i for i, b in enumerate(current) if b > 0}
            chosen = None
            for pd in pdata:
                if set(pd.set).issubset(positives):
                    chosen = pd
                    break
            if chosen is None:
                raise NotEffective("no primitive set lies in the positive support")
            counts[chosen.set] = counts.get(chosen.set, 0) + 1
            current = [x - y for x, y in zip(current, chosen.cls.pairings)]
        by_set = {pd.set: pd for pd in pdata}
        return tuple((by_set[s], c) for s, c in sorted(counts.items()))

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


def test_decompose_effective_node_budget(p2, bl3p2, monkeypatch):
    rel = {pd.set: pd for pd in fan_mod.primitive_data(bl3p2)}
    beta = rel[(0, 1)].cls + rel[(4, 5)].cls
    monkeypatch.setattr(fan_mod, "SEARCH_NODE_BUDGET", 1)
    with pytest.raises(SearchBudgetExceeded) as err:
        fan_mod.decompose_effective(bl3p2, beta)
    assert not isinstance(err.value, NotEffective)
    # the greedy branch visits no search state
    line = fan_mod.primitive_data(p2)[0]
    assert fan_mod.decompose_effective(p2, line.cls) == ((line, 1),)


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
