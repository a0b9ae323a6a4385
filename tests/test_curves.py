import heapq
from itertools import combinations

import pytest

from toricqh import curves, fan as fan_mod
from toricqh.errors import (
    FanNotAccepted,
    IndexOutOfRange,
    LocateFailure,
    NotACone,
    PreconditionFailed,
)
from toricqh.fan import CurveClass, Fan


def test_signed_distance_oracles(p2, bl1p2, f2):
    assert curves.signed_distance(p2, (0, 1), 2) == 3
    assert curves.signed_distance(bl1p2, (1, 2), 3) == 2
    assert curves.signed_distance(f2, (0, 2), 1) == 0
    for fan in (p2, bl1p2):
        for mu in fan.max_cones:
            for i in mu:
                assert curves.signed_distance(fan, mu, i) == 0


def test_signed_distance_positive_in_tier(corpus):
    for fan in corpus.values():
        for mu in fan.max_cones:
            for d in range(fan.n_rays):
                if d not in mu:
                    assert curves.signed_distance(fan, mu, d) >= 1


def test_signed_distance_validates(p2):
    with pytest.raises(NotACone):
        curves.signed_distance(p2, (0, 1, 2), 0)
    with pytest.raises(NotACone, match="not a maximal cone"):
        curves.signed_distance(p2, (0,), 1)
    with pytest.raises(IndexOutOfRange):
        curves.signed_distance(p2, (0, 1), 9)


@pytest.mark.parametrize("bad", [True, 0.0, None, "0"])
def test_entry_points_refuse_non_int_indices(bl3p2, p3, bad):
    with pytest.raises(ValueError, match="cone index"):
        curves.wall_curve_class(p3, (bad, 1))
    with pytest.raises(ValueError, match="cone index"):
        curves.signed_distance(bl3p2, (bad, 3), 2)
    with pytest.raises(ValueError, match="ray index"):
        curves.signed_distance(bl3p2, (0, 3), bad)
    with pytest.raises(ValueError, match="cone index"):
        curves.min_tree(bl3p2, (bad, 3), 2)
    with pytest.raises(ValueError, match="ray index"):
        curves.min_tree(bl3p2, (0, 3), bad)


def test_cones_are_canonicalized(bl3p2):
    # any order and any sequence type name the same cone, and the
    # cone inverses are keyed only by the sorted tuples of max_cones
    assert curves.signed_distance(bl3p2, [3, 0], 2) == curves.signed_distance(bl3p2, (0, 3), 2)
    assert curves.min_tree(bl3p2, [3, 0], 2) == curves.min_tree(bl3p2, (0, 3), 2)
    assert curves.min_tree(bl3p2, (3, 0), 2).root == (0, 3)
    assert set(fan_mod._validated(bl3p2)[2]) <= set(bl3p2.max_cones)


def test_wall_curve_class_oracles(p2, p1xp1, f2, p3):
    assert curves.wall_curve_class(p2, (1,)).pairings == (1, 1, 1)
    assert curves.wall_curve_class(p1xp1, (0,)).pairings == (0, 0, 1, 1)
    assert curves.wall_curve_class(f2, (2,)).pairings == (1, 1, -2, 0)
    assert curves.wall_curve_class(p3, (0, 1)).pairings == (1, 1, 1, 1)
    with pytest.raises(NotACone):
        curves.wall_curve_class(p2, (0, 1))
    with pytest.raises(NotACone):
        curves.wall_curve_class(p3, (0,))


def test_wall_classes_are_curve_classes(corpus):
    for fan in corpus.values():
        for cone in fan.max_cones:
            for wall in combinations(cone, fan.dim - 1):
                cls = curves.wall_curve_class(fan, wall)
                fan_mod.curve_class(fan, cls.pairings)
                assert cls.degree >= 1


def test_min_tree_oracles(p2, bl1p2, f2):
    tree = curves.min_tree(p2, (0, 1), 2)
    assert tree.root == (0, 1) and tree.target == 2
    assert tree.edges == (((1,), 1),)
    assert tree.cls.pairings == (1, 1, 1)
    assert tree.degree_verified

    tree = curves.min_tree(bl1p2, (1, 2), 3)
    assert tree.edges == (((1,), 1),)
    assert tree.cls.pairings == (0, 0, 1, 1)
    assert tree.degree_verified

    tree = curves.min_tree(f2, (0, 2), 1)
    assert tree.edges == (((2,), 1),)
    assert tree.cls.pairings == (1, 1, -2, 0)
    assert not tree.degree_verified

    inside = curves.min_tree(p2, (0, 1), 0)
    assert inside.edges == () and inside.cls.is_zero()


def test_min_tree_stops_a_looping_walk(p1xp1, monkeypatch):
    # coordinates that always drop the second generator bounce the walk
    # from {1,3} to {1,4} and back, never reaching D2
    steps = []
    real = fan_mod.coords_in_basis

    def bouncing(fan, cone, v):
        if v != fan.rays[1]:
            return real(fan, cone, v)
        steps.append(cone)
        return (0, -1)

    monkeypatch.setattr(fan_mod, "coords_in_basis", bouncing)
    with pytest.raises(LocateFailure, match="loop"):
        curves.min_tree(p1xp1, (0, 2), 1)
    assert steps == [(0, 2), (0, 3)]
    assert len(steps) <= len(p1xp1.max_cones)


def test_min_tree_degree_equals_distance(corpus):
    for fan in corpus.values():
        for mu in fan.max_cones:
            for d in range(fan.n_rays):
                tree = curves.min_tree(fan, mu, d)
                assert tree.cls.degree == curves.signed_distance(fan, mu, d)
                assert tree.degree_verified


def test_tree_for_class_oracles(p2, bl1p2):
    line = fan_mod.curve_class(p2, (1, 1, 1))
    trees = curves.tree_for_class(p2, line)
    assert len(trees) == 1 and trees[0][1] == 1
    assert curves.tree_total(trees) == line

    conic = fan_mod.curve_class(p2, (2, 2, 2))
    trees = curves.tree_for_class(p2, conic)
    assert trees[0][1] == 2
    assert curves.tree_total(trees) == conic

    section = fan_mod.curve_class(bl1p2, (0, 0, 1, 1))
    trees = curves.tree_for_class(bl1p2, section)
    assert curves.tree_total(trees) == section


def test_tree_for_primitive_classes(corpus):
    for fan in corpus.values():
        for pd in fan_mod.primitive_data(fan):
            trees = curves.tree_for_class(fan, pd.cls)
            assert curves.tree_total(trees) == pd.cls


def test_tree_for_class_rejects(p2, bl1p2):
    with pytest.raises(PreconditionFailed):
        curves.tree_for_class(bl1p2, CurveClass((-1, -1, 0, 1)))
    with pytest.raises(PreconditionFailed):
        curves.tree_for_class(p2, CurveClass((-1, -1, -1)))
    with pytest.raises(PreconditionFailed):
        curves.tree_total(())


def test_tree_for_class_validates():
    # P^2 missing its cone {1,3}: the zero class has no trees to find
    bad = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2)))
    with pytest.raises(FanNotAccepted):
        curves.tree_for_class(bad, CurveClass((0, 0, 0)))


def _dijkstra_distance(fan, start, targets, weight):
    dist = {start: 0}
    heap = [(0, start)]
    while heap:
        d, cone = heapq.heappop(heap)
        if d > dist[cone]:
            continue
        if cone in targets:
            return d
        for wall in combinations(cone, fan.dim - 1):
            owners = [c for c in fan.max_cones if set(wall) <= set(c)]
            other = owners[0] if owners[0] != cone else owners[1]
            nd = d + weight[wall]
            if nd < dist.get(other, nd + 1):
                dist[other] = nd
                heapq.heappush(heap, (nd, other))
    raise AssertionError("target unreachable")


def test_min_tree_is_shortest(corpus):
    for fan in corpus.values():
        weight = {}
        for cone in fan.max_cones:
            for wall in combinations(cone, fan.dim - 1):
                weight[wall] = curves.wall_curve_class(fan, wall).degree
        for mu in fan.max_cones:
            for d in range(fan.n_rays):
                targets = {c for c in fan.max_cones if d in c}
                best = _dijkstra_distance(fan, mu, targets, weight)
                assert curves.min_tree(fan, mu, d).cls.degree == best
