"""Checks on fans too large for the tier-1 suite.

Pytest's default collection skips this file (its name has no test_ prefix),
so the tier-1 run stays fast; run it by path, with -s to see the timings
each check prints:

    PYTHONPATH=src python -m pytest -q -s tests/large_fans.py

Every reference comes from the tier-1 module that defines it, so each has
one definition.  No check asserts a wall-clock time.  Each test starts from
empty caches, as a fresh process would.
"""

import random
import time

import pytest
from test_cohomology import _eliminated_table
from test_fano import (
    _enumerated_exceptional_sets,
    _enumerated_primitive_exceptional_sets,
    _special_reference,
)
from test_quantum import (
    _check_against_the_tuple_rewrite,
    _giambelli_pair_product,
    _pair_monomials,
    _rewrite_depth,
)

from toricqh import catalog, cohomology, quantum
from toricqh import fan as fan_mod
from toricqh import fano

P1, P2, BL3 = catalog.projective_space(1), catalog.projective_plane(), catalog.blowup_p2_three()

# the products whose shelling, census, ring tables and images are checked, in
# the order their images are drawn; towers and exceptional sets need Bl3P^2
PRODUCTS = {
    "p1^6": (P1,) * 6,
    "p1^7": (P1,) * 7,
    "bl3xbl3xp1": (BL3, BL3, P1),
    "p2^4": (P2,) * 4,
    "bl3^3": (BL3,) * 3,
}
WITH_BL3 = [name for name, factors in PRODUCTS.items() if BL3 in factors]


@pytest.fixture(autouse=True)
def cold():
    fan_mod.clear_caches()


@pytest.fixture(scope="module")
def products(gl_image):
    """name -> (product fan, two GL(n, Z) images), every image drawn from one
    Random(29) in the order of PRODUCTS."""
    rng = random.Random(29)
    out = {}
    for name, factors in PRODUCTS.items():
        fan = catalog.product(*factors)
        out[name] = (fan, [gl_image(fan, rng) for _ in range(2)])
    return out


def test_random_rewrites_of_every_d_i_32_equal_the_deterministic_one(bl3p2):
    start = time.perf_counter()
    for i in range(bl3p2.n_rays):
        expected = quantum.reduce_monomial(bl3p2, (i,) * 32)
        for seed in range(3):
            assert quantum.reduce_monomial(bl3p2, (i,) * 32, random.Random(seed)) == expected, (i, seed)
    print(f"\nD_i^32 on Bl3P^2, deterministic and three seeds: {time.perf_counter() - start:.2f} s")


def test_the_rewrite_of_every_d_i_40_on_bl3p2_recurses_at_most_3k_deep(bl3p2):
    # the tier-1 depth count on the corpus's largest fan, every strategy
    start = time.perf_counter()
    deepest = 0
    for i in range(bl3p2.n_rays):
        for seed in (None, 0, 1, 2):
            depth = _rewrite_depth(bl3p2, (i,) * 40, None if seed is None else random.Random(seed))
            assert depth <= 3 * 40, (i, seed, depth)
            deepest = max(deepest, depth)
    print(f"\nD_i^40 on Bl3P^2: at most {deepest} frames deep, {time.perf_counter() - start:.2f} s")


def test_d1_32_as_a_chain_of_products_equals_the_rewrite(bl3p2):
    d1 = cohomology.stratum_class(bl3p2, (0,))
    start = time.perf_counter()
    chain = quantum.classical(bl3p2, d1)
    for _ in range(31):
        chain = quantum.quantum_product(bl3p2, chain, d1)
    chained = time.perf_counter() - start
    start = time.perf_counter()
    rewrite = quantum.reduce_monomial(bl3p2, (0,) * 32)
    rewritten = time.perf_counter() - start
    assert chain == rewrite
    print(f"\nD1^32 on Bl3P^2: {len(rewrite.parts)} q-parts; product chain {chained:.2f} s, rewrite {rewritten:.2f} s")


def test_the_packed_rewrite_of_every_pair_of_bl3xbl3xp1_equals_the_tuple_rewrite(products):
    # every tau_i + tau_j, deterministic and under three random strategies
    fan, _ = products["bl3xbl3xp1"]
    monomials = _pair_monomials(fan)
    start = time.perf_counter()
    _check_against_the_tuple_rewrite(fan, monomials)
    print(f"\n{len(monomials)} pair monomials against the tuple rewrite in {time.perf_counter() - start:.2f} s")


def test_the_packed_rewrite_of_d1_powers_equals_the_tuple_rewrite(bl3p2):
    # D1^k on Bl3P^2 for k <= 32, deterministic and under three random strategies
    start = time.perf_counter()
    _check_against_the_tuple_rewrite(bl3p2, [(0,) * k for k in range(1, 33)])
    print(f"\nD1^1 .. D1^32 on Bl3P^2 against the tuple rewrite in {time.perf_counter() - start:.2f} s")


@pytest.mark.parametrize("name", PRODUCTS)
def test_ring_tables_equal_the_elimination(products, name):
    fan, _ = products[name]
    census = cohomology.betti_census(fan)
    start = time.perf_counter()
    dims = {d: cohomology.degree_dimension(fan, d) for d in range(fan.dim + 1)}
    tables_s = time.perf_counter() - start
    assert dims == census
    start = time.perf_counter()
    reference = [_eliminated_table(fan, d) for d in range(fan.dim + 1)]
    eliminated_s = time.perf_counter() - start
    ring = cohomology._ring(fan)
    for d, want in enumerate(reference):
        assert ring.table(d) == want, d
    print(f"\n{name}: census {census}; tables from the shelling {tables_s * 1e3:.1f} ms,"
          f" by elimination {eliminated_s * 1e3:.1f} ms")


def _validated(fan):
    return fan_mod.validate(fan), fan_mod.faces(fan), fan_mod.primitive_sets(fan), fan_mod.primitive_data(fan)


@pytest.mark.parametrize("name", PRODUCTS)
def test_images_validate_as_they_do_cold(products, name):
    # the images share the product's complex, whose face index and primitive
    # sets are memoized: each must get what it gets cold
    fan, images = products[name]
    _validated(fan)
    warm = [_validated(image) for image in images]
    for image, got in zip(images, warm):
        assert got[0].accepted
        fan_mod.clear_caches()
        assert _validated(image) == got


def _blow_down_data(fan):
    tower = fano.blow_down_tower(fan)
    return tower, [fano.primitive_exceptional_sets(stage) for stage in tower]


@pytest.mark.parametrize("name", WITH_BL3)
def test_towers_equal_the_enumeration_and_their_cold_runs(products, name):
    # the tower and the blow-down data read off the primitive relations, at
    # every stage, on the product and its images
    fan, images = products[name]
    warm = [_blow_down_data(f) for f in [fan] + images]
    for f, (tower, data) in zip([fan] + images, warm):
        assert data == [_enumerated_primitive_exceptional_sets(stage) for stage in tower]
        fan_mod.clear_caches()
        assert _blow_down_data(f) == (tower, data)
    print(f"\n{name}: towers of {len(warm[0][0])} stages on the fan and 2 images")


@pytest.mark.parametrize("name", WITH_BL3)
def test_exceptional_and_special_sets_equal_the_subset_search(products, name):
    fan, images = products[name]
    for f in [fan] + images:
        start = time.perf_counter()
        want = _enumerated_exceptional_sets(f)
        search_s = time.perf_counter() - start
        fan_mod.clear_caches()
        start = time.perf_counter()
        got = fano.exceptional_sets(f)
        specials = {sigma: fano.special_exceptional_sets(f, sigma) for sigma in fan_mod.faces(f)}
        closure_s = time.perf_counter() - start
        assert got == want
        for sigma, special in specials.items():
            assert special == _special_reference(want, sigma), sigma
        print(f"\n{name}: {len(want)} exceptional sets, special sets of {len(specials)} faces;"
              f" search {search_s * 1e3:.1f} ms, cold closure and special sets {closure_s * 1e3:.1f} ms")


def _pair_table(fan):
    """The basis classes and every pair product b_i * b_j, i <= j, with the
    seconds the table took."""
    start = time.perf_counter()
    b = len(cohomology.basis_tau(fan))
    basis = [cohomology.basis_class(fan, i) for i in range(b)]
    table = {(i, j): quantum.quantum_product(fan, basis[i], basis[j]) for i in range(b) for j in range(i, b)}
    return basis, table, time.perf_counter() - start


def _check_associative(fan, basis, table, rng):
    for _ in range(3):
        i, j, k = (rng.randrange(len(basis)) for _ in range(3))
        left = quantum.quantum_product(fan, table[min(i, j), max(i, j)], basis[k])
        right = quantum.quantum_product(fan, basis[i], table[min(j, k), max(j, k)])
        assert left == right, (i, j, k)


def test_pair_table_of_bl3xbl3xp1xp1_is_associative():
    # 16 rays: the packed q-keys hold 16 digits
    fan = catalog.product(BL3, BL3, P1, P1)
    basis, table, built = _pair_table(fan)
    _check_associative(fan, basis, table, random.Random(1))
    print(f"\n{len(table)} pair products in {built:.2f} s; associative on 3 seeded basis triples")


def test_pair_table_of_bl3_cubed():
    # commutative, associative, equal to the Giambelli reference, and the
    # same when rebuilt cold in transposed order
    fan = catalog.product(BL3, BL3, BL3)
    basis, table, built = _pair_table(fan)
    b, rng = len(basis), random.Random(1)
    for (i, j), prod in table.items():
        assert quantum.quantum_product(fan, basis[j], basis[i]) == prod, (j, i)
    for _ in range(3):
        x, y = (sum((basis[rng.randrange(b)] for _ in range(4)), cohomology.CohomologyClass()) for _ in range(2))
        assert quantum.quantum_product(fan, x, y) == quantum.quantum_product(fan, y, x), (x, y)
    _check_associative(fan, basis, table, rng)
    # the transposes above read the same sorted pair_cache entry, so they
    # cannot catch a wrong pair route; the Giambelli reference can
    for _ in range(20):
        i, j = rng.randrange(b), rng.randrange(b)
        assert _giambelli_pair_product(fan, i, j) == table[min(i, j), max(i, j)], (i, j)
    # a cold rebuild that asks each pair first as (j, i), in descending order,
    # computes every pair product apart from the first table
    fan_mod.clear_caches()
    basis = [cohomology.basis_class(fan, i) for i in range(b)]
    for i, j in reversed(list(table)):
        assert quantum.quantum_product(fan, basis[j], basis[i]) == table[i, j], (j, i)
    print(f"\n{len(table)} pair products, the first table built in {built:.2f} s")
