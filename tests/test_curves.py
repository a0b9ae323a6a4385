import heapq
import itertools
import random
from itertools import combinations

import pytest

from toricqh import catalog, cohomology, curves, fan as fan_mod, fano, lattice
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


def test_wall_classes_pair_as_intersection_numbers(corpus, p3, bundle3, threefolds):
    # D_i . [V(tau)] from the cohomology ring: an oracle that does not read
    # the wall relation off the cone coordinates
    p1, p2 = catalog.projective_space(1), catalog.projective_plane()
    fans = list(corpus.values()) + [
        p3,
        bundle3,
        threefolds["p1x3"],
        threefolds["bl3p2xp1"],
        catalog.product(p2, p2),
        catalog.product(catalog.blowup_p2_two(), p1),
    ]
    walls = 0
    for fan in fans:
        divisors = [cohomology.stratum_class(fan, (i,)) for i in range(fan.n_rays)]
        for wall in fan_mod.faces(fan):
            if len(wall) != fan.dim - 1:
                continue
            stratum = cohomology.stratum_class(fan, wall)
            want = tuple(cohomology.integrate(fan, cohomology.cup(fan, d, stratum)) for d in divisors)
            assert curves.wall_curve_class(fan, wall).pairings == want, wall
            walls += 1
    assert walls == 100


def test_a_cold_wall_class_equals_a_second_call_in_either_order(corpus, threefolds, gl_image):
    # on every wall of the corpus, the threefolds and two GL images of each,
    # a solve from empty caches equals a second call, the wall given sorted
    # or reversed
    rng = random.Random(37)
    fans = 0
    for fan in list(corpus.values()) + list(threefolds.values()):
        for f in (fan, gl_image(fan, rng), gl_image(fan, rng)):
            walls = [w for w in fan_mod.faces(f) if len(w) == f.dim - 1]
            cold = {}
            for w in walls:
                fan_mod.clear_caches()
                cold[w] = curves.wall_curve_class(f, w)
            warm = {w: curves.wall_curve_class(f, w) for w in reversed(walls)}
            assert {w: curves.wall_curve_class(f, w[::-1]) for w in walls} == warm == cold
            fans += 1
    assert fans == 3 * 9


def test_a_walk_builds_no_wall_class(corpus, threefolds, monkeypatch):
    # counted, not timed: the trees of every sum of two primitive classes
    # solve each crossed wall in place and build no class for it; the one
    # curve_class check per tree_for_class call is beta's, plus one per tree
    relation_class, curve_class = fan_mod._relation_class, fan_mod.curve_class
    relations, checks = [], []

    def counted_relation(fan, lhs, rhs):
        relations.append(fan)
        return relation_class(fan, lhs, rhs)

    def counted_check(fan, pairings):
        checks.append(fan)
        return curve_class(fan, pairings)

    for fan in list(corpus.values()) + list(threefolds.values()):
        fan_mod.clear_caches()
        pds = fan_mod.primitive_data(fan)  # its relations are not the walls'
        monkeypatch.setattr(fan_mod, "_relation_class", counted_relation)
        monkeypatch.setattr(fan_mod, "curve_class", counted_check)
        relations.clear()
        checks.clear()
        calls = trees = 0
        for a, b in itertools.product(pds, repeat=2):
            calls += 1
            try:
                trees += len(curves.tree_for_class(fan, a.cls + b.cls))
            except PreconditionFailed:
                continue
        monkeypatch.undo()
        assert relations == [], fan
        assert len(checks) == calls + trees and trees > 0, fan


def _face_index_wall_class(fan, wall):
    """The reference for wall_curve_class: the wall's owners from the face
    index, and the coordinates of the first owner's opposite ray in the
    second owner."""
    key = tuple(sorted(wall))
    first, second = fan_mod._face_index(fan)[key]
    (rho,), (rho2,) = set(first) - set(key), set(second) - set(key)
    coords = dict(zip(second, fan_mod.coords_in_basis(fan, second, fan.rays[rho])))
    assert coords[rho2] == -1, wall
    return fan_mod._relation_class(fan, (rho, rho2), ((j, coords[j]) for j in key))


def _check_walls_and_tree_totals(fan):
    """Every wall class against the face-index solve, and every tree of
    every sum of two primitive classes against the sum of its edges' wall
    classes with multiplicity; the counts of walls and trees checked."""
    walls = [w for w in fan_mod.faces(fan) if len(w) == fan.dim - 1]
    for wall in walls:
        assert curves.wall_curve_class(fan, wall) == _face_index_wall_class(fan, wall), wall
    pds, trees = fan_mod.primitive_data(fan), 0
    for a, b in itertools.product(pds, repeat=2):
        try:
            found = curves.tree_for_class(fan, a.cls + b.cls)
        except PreconditionFailed:
            continue
        for tree, _ in found:
            total = CurveClass((0,) * fan.n_rays)
            for wall, mult in tree.edges:
                total = total + curves.wall_curve_class(fan, wall).scaled(mult)
            assert tree.cls == total, (a.set, b.set, tree)
            trees += 1
    return len(walls), trees


def test_wall_classes_and_tree_totals_equal_the_face_index_solve(
    corpus, threefolds, fano_threefolds, gl_image
):
    p2 = catalog.projective_plane()
    bases = (
        list(corpus.values())
        + list(threefolds.values())
        + list(fano_threefolds.values())
        + [catalog.product(p2, p2)]
    )
    rng = random.Random(39)
    walls = trees = fans = 0
    for fan in bases:
        for f in (fan, gl_image(fan, rng), gl_image(fan, rng)):
            w, t = _check_walls_and_tree_totals(f)
            walls, trees, fans = walls + w, trees + t, fans + 1
    assert fans == 3 * len(bases)
    assert walls > 0 and trees > 0
    print(f"{fans} fans, {walls} walls, {trees} trees")


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
    # coordinates of D2 that always drop the second generator bounce the
    # walk from {1,3} to {1,4} and back, never reaching D2; the walk reads
    # them with lattice.mat_vec off the fan's validated inverses
    fano.classify(p1xp1)  # the tier min_tree reads is computed unpatched
    cone_of = {fan_mod.cone_inverse(p1xp1, mu): mu for mu in p1xp1.max_cones}
    steps = []
    real = lattice.mat_vec

    def bouncing(matrix, v):
        if v != p1xp1.rays[1]:
            return real(matrix, v)
        steps.append(cone_of[matrix])
        return (0, -1)

    monkeypatch.setattr(lattice, "mat_vec", bouncing)
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


def test_tree_total_refuses_an_entry_that_is_no_pair(p2):
    # a bare tree used to fail in the unpacking, a non-iterable entry with a
    # TypeError, neither naming the argument
    line = fan_mod.curve_class(p2, (1, 1, 1))
    (tree, count), = curves.tree_for_class(p2, line)
    for entry in (tree, 3, (tree,), (tree, 1, 1)):
        with pytest.raises(ValueError, match=r"^tree entry .* is not a \(tree, count\) pair$"):
            curves.tree_total(((tree, count), entry))
    assert curves.tree_total(((tree, count), (tree, 2))) == line.scaled(3)


def test_tree_for_class_refuses_a_beta_that_is_no_curve_class(p2):
    with pytest.raises(ValueError, match=r"^beta \(1, 1, 1\) is not a CurveClass$"):
        curves.tree_for_class(p2, (1, 1, 1))
    assert curves.tree_for_class(p2, CurveClass((1, 1, 1)))


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
