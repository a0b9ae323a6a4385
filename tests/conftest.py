import contextlib
import pathlib
import signal

import pytest

from toricqh import catalog, lattice
from toricqh.fan import Fan

FANS_DIR = pathlib.Path(__file__).resolve().parent.parent / "fans"


@pytest.fixture(scope="session")
def corpus():
    return catalog.corpus()


@pytest.fixture(scope="session")
def p2():
    return catalog.projective_plane()


@pytest.fixture(scope="session")
def p1xp1():
    return catalog.product_p1p1()


@pytest.fixture(scope="session")
def bl1p2():
    return catalog.blowup_p2_one()


@pytest.fixture(scope="session")
def bl2p2():
    return catalog.blowup_p2_two()


@pytest.fixture(scope="session")
def bl3p2():
    return catalog.blowup_p2_three()


@pytest.fixture(scope="session")
def f2():
    return catalog.hirzebruch(2)


@pytest.fixture(scope="session")
def p3():
    return catalog.projective_space(3)


@pytest.fixture(scope="session")
def threefolds(p3):
    """Fano threefolds with more maximal cones than the surfaces have."""
    p1, p2 = catalog.projective_space(1), catalog.projective_plane()
    return {
        "p3": p3,
        "p2xp1": catalog.product(p2, p1),
        "p1x3": catalog.product(p1, p1, p1),
        "bl3p2xp1": catalog.product(catalog.blowup_p2_three(), p1),
    }


@pytest.fixture(scope="session")
def bundle3():
    return catalog.twisted_bundle_threefold()


@pytest.fixture(scope="session")
def not_fans():
    """Cone sets that are no fans although every facet lies in two of their
    unimodular cones and the facet graph is connected: the first winds twice
    around the origin, the second folds back over the rays (0,1) and (1,1)."""
    return {
        "double winding": Fan(
            2,
            ((1, 0), (-1, 1), (-1, 0), (1, -1), (0, 1), (-1, -1), (0, -1)),
            tuple((i, (i + 1) % 7) for i in range(7)),
        ),
        "fold": Fan(
            2, ((1, 0), (0, 1), (1, 1), (-1, 0), (0, -1)), ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
        ),
    }


def _gl_image(fan, rng):
    """The fan moved by a seeded unimodular matrix: a signed permutation
    times three transvections with entries +-1; ray labels are kept."""
    n = fan.dim
    perm = list(range(n))
    rng.shuffle(perm)
    mat = [[(rng.choice((1, -1)) if perm[i] == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(3):
        a, b = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        for row in mat:
            row[b] += s * row[a]
    rays = tuple(lattice.mat_vec(mat, r) for r in fan.rays)
    return Fan(n, rays, fan.max_cones)


@pytest.fixture(scope="session")
def gl_image():
    """gl_image(fan, rng) is the fan moved by a seeded GL(n, Z) matrix."""
    return _gl_image


@pytest.fixture(scope="session")
def fans_dir():
    return FANS_DIR


def _deadline_hit(signum, frame):
    raise TimeoutError("the call ran past its deadline")


@pytest.fixture
def deadline():
    """deadline(seconds) is a context manager that raises TimeoutError in
    its block once the seconds have passed (SIGALRM, main thread only)."""

    @contextlib.contextmanager
    def within(seconds):
        previous = signal.signal(signal.SIGALRM, _deadline_hit)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return within
