import contextlib
import pathlib
import signal
from fractions import Fraction

import pytest

from toricqh import catalog, fano, lattice
from toricqh import fan as fan_mod
from toricqh.errors import NonUnimodular
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


def blow_up(fan, cone):
    """The star subdivision of the fan at a cone: a new last ray, the sum of
    the cone's rays, and each maximal cone through the cone replaced by the
    cones that swap one of the cone's rays for the new one."""
    new = fan.n_rays
    ray = tuple(map(sum, zip(*(fan.rays[i] for i in cone))))
    cones = []
    for mc in fan.max_cones:
        if set(cone) <= set(mc):
            cones.extend(tuple(sorted(set(mc) - {i} | {new})) for i in cone)
        else:
            cones.append(mc)
    return Fan(fan.dim, fan.rays + (ray,), cones)


@pytest.fixture(scope="session")
def fano_threefolds(threefolds):
    """The Fano threefolds that star subdivisions reach, breadth-first, from
    P^3, P^2 x P^1 and (P^1)^3, one per isomorphism class.  A name is its
    parent's name and the blown-up cone, 1-based: "p3.12" blows up the cone
    (1, 2) of P^3."""
    found = {name: threefolds[name] for name in ("p3", "p2xp1", "p1x3")}
    queue = list(found)
    while queue:
        parent = queue.pop(0)
        for cone in fan_mod.faces(found[parent]):
            if len(cone) < 2:
                continue
            fan = blow_up(found[parent], cone)
            if fano.classify(fan).tier < fano.Tier.FANO or any(
                old.n_rays == fan.n_rays and fan_mod.is_isomorphic(fan, old)
                for old in found.values()
            ):
                continue
            name = f"{parent}.{''.join(str(i + 1) for i in cone)}"
            found[name] = fan
            queue.append(name)
    return found


@pytest.fixture(scope="session")
def bundle3():
    return catalog.twisted_bundle_threefold()


@pytest.fixture(scope="session")
def shared_head():
    """SubvarietiesFano threefold and fourfold, outside FullClass: X is
    P(O + O(1,1)) over P^1 x P^1, where the primitive sets {0, 1} and {2, 3}
    both have rhs ray 4, and X x P^1.  On X, the quantum rewrite of
    (0, 0, 0, 2, 5, 5) depends on its strategy."""
    x = Fan(
        3,
        ((1, 0, 0), (-1, 0, 1), (0, 1, 0), (0, -1, 1), (0, 0, 1), (0, 0, -1)),
        tuple((a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)),
    )
    return {"x": x, "xxp1": catalog.product(x, catalog.projective_space(1))}


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


# Fraction eliminations, independent of the integer echelon in lattice:
# the references the kernel and every cone inverse are compared against.


class _DependentGenerators(Exception):
    """Raised by the reference solve on linearly dependent columns."""


def _ref_solve_columns(columns, target):
    k = len(columns)
    if k == 0:
        return [] if all(x == 0 for x in target) else None
    n = len(columns[0])
    aug = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(n)]
    row = 0
    for col in range(k):
        sel = None
        for r in range(row, n):
            if aug[r][col] != 0:
                sel = r
                break
        if sel is None:
            raise _DependentGenerators("generators are linearly dependent")
        aug[row], aug[sel] = aug[sel], aug[row]
        inv = Fraction(1) / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for r in range(n):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[row])]
        row += 1
    for r in range(row, n):
        if aug[r][k] != 0:
            return None
    return [aug[i][k] for i in range(k)]


def _ref_rational_rank(rows):
    work = [list(map(Fraction, row)) for row in rows]
    ncols = len(work[0]) if work else 0
    rank = 0
    for col in range(ncols):
        sel = None
        for r in range(rank, len(work)):
            if work[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        work[rank], work[sel] = work[sel], work[rank]
        inv = Fraction(1) / work[rank][col]
        work[rank] = [x * inv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank


def _ref_integer_inverse(matrix):
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise NonUnimodular("matrix is not square")
    cols = [[matrix[i][j] for i in range(n)] for j in range(n)]
    out_rows = [[0] * n for _ in range(n)]
    for idx in range(n):
        target = [1 if i == idx else 0 for i in range(n)]
        try:
            sol = _ref_solve_columns(cols, target)
        except _DependentGenerators:
            raise NonUnimodular("matrix is singular") from None
        if sol is None:
            raise NonUnimodular("matrix is singular")
        for j, val in enumerate(sol):
            if val.denominator != 1:
                raise NonUnimodular("matrix determinant is not +-1")
            out_rows[j][idx] = int(val)
    return out_rows


def _ref_determinant(matrix):
    n = len(matrix)
    work = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        sel = None
        for r in range(col, n):
            if work[r][col] != 0:
                sel = r
                break
        if sel is None:
            return 0
        if sel != col:
            work[col], work[sel] = work[sel], work[col]
            det = -det
        det *= work[col][col]
        inv = Fraction(1) / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(col + 1, n):
            if work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return int(det)


@pytest.fixture(scope="session")
def ref_rational_rank():
    """ref_rational_rank(rows): the rank over Q, by Fraction elimination."""
    return _ref_rational_rank


@pytest.fixture(scope="session")
def ref_integer_inverse():
    """ref_integer_inverse(matrix): the integer inverse by Fraction solves,
    raising NonUnimodular with the messages of lattice.integer_inverse."""
    return _ref_integer_inverse


@pytest.fixture(scope="session")
def ref_determinant():
    """ref_determinant(matrix): the determinant of a square integer matrix."""
    return _ref_determinant
