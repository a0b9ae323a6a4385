import contextlib
import pathlib
import signal

import pytest

from toricqh import catalog

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
def bundle3():
    return catalog.twisted_bundle_threefold()


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
