"""Complete nonsingular simplicial fans and their curve-class combinatorics.

A fan is held as the lattice dimension, the ray generator list, and the
maximal cones as sorted index tuples (0-based internally; the JSON format
and all CLI output are 1-based).  Validation returns a report instead of
raising so rejected inputs can be inspected; everything downstream insists
on an accepted fan.  Validation also inverts every maximal cone, most of
them across a wall, and the inverses answer every coordinate question
(cone_inverse).  What validation reads off the maximal cones alone, and
not the rays, is built once per complex, the fan's dimension, ray count and
maximal cones, and shared by every fan with that complex (_complex): the
cone shape checks, the facet and ray cover checks, the walls, the
primitive sets and the face index, which answers every cone question: each
cone, by dimension then lexicographically, mapped to the maximal cones
containing it in fan.max_cones order.  _ray_indices is the
one check of a caller's ray or divisor indices, and _cone_key, built on
it, the one check that turns a caller's cone argument into its sorted key;
both word an index out of range 1-based.

Whatever is computed once per fan, here or in a module built on this one,
is a function of the fan decorated with per_fan: its value is memoized in
one memo keyed by the fan and the function, which clear_caches empties.
Each module declares its own per-fan values.  The per-complex values live
in the same memo, keyed by the complex instead of the fan.
"""

from __future__ import annotations

import json
from functools import wraps
from itertools import combinations, permutations
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, TypeVar

from . import lattice
from .errors import (
    DimensionMismatch,
    FanNotAccepted,
    IndexOutOfRange,
    LocateFailure,
    NonUnimodular,
    NotACone,
    NotEffective,
    PreconditionFailed,
    SearchBudgetExceeded,
)

Vector = tuple[int, ...]
Cone = tuple[int, ...]
T = TypeVar("T")

# States the effectivity search may visit, and batches its greedy loop may
# subtract, before it gives up.  The hardest non-effective class
# a*beta_i - beta_j (a <= 3) on bl3p2, bl2xp1 and bl3xp1 takes under 700
# states; 100k states take about 0.3 s on a six-ray surface.  A batch takes
# one primitive class as many times in a row as it would be chosen, so any
# multiple of one class is a single batch.
SEARCH_NODE_BUDGET = 100_000


def _strict_int(x, what: str) -> int:
    # exactly int: a float, a bool or a numeric string is refused, not coerced
    if type(x) is not int:
        raise ValueError(f"{what} {x!r} is not an integer")
    return x


def _strict_instance(x, kind: type, what: str):
    # an instance of kind, else refused by the argument's name, never read as one
    if not isinstance(x, kind):
        raise ValueError(f"{what} {x!r} is not a {kind.__name__}")
    return x


class _Frozen:
    """Base of the slotted records: their constructors set each field once
    with object.__setattr__, and after that no attribute can change."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Fan(_Frozen):
    """A fan; equality and hash are those of (dim, rays, max_cones)."""

    __slots__ = ("dim", "rays", "max_cones", "_hash")

    def __init__(self, dim: int, rays: Iterable[Iterable[int]], max_cones: Iterable[Iterable[int]]):
        if type(dim) is not int or dim < 0:
            raise ValueError("dim must be a nonnegative integer")
        rays = tuple(tuple(_strict_int(x, "ray entry") for x in ray) for ray in rays)
        cones = tuple(
            sorted(tuple(sorted(_strict_int(i, "cone index") for i in cone)) for cone in max_cones)
        )
        _set = object.__setattr__
        _set(self, "dim", dim)
        _set(self, "rays", rays)
        _set(self, "max_cones", cones)
        # every per-fan cache lookup hashes the fan: hash the fields once
        _set(self, "_hash", hash((dim, rays, cones)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dim, self.rays, self.max_cones) == (other.dim, other.rays, other.max_cones)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return self.__class__, (self.dim, self.rays, self.max_cones)

    def __repr__(self) -> str:
        return f"Fan(dim={self.dim!r}, rays={self.rays!r}, max_cones={self.max_cones!r})"

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "rays": [list(r) for r in self.rays],
            "max_cones": [[i + 1 for i in cone] for cone in self.max_cones],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "Fan":
        try:
            dim = data["dim"]
            rays = tuple(tuple(r) for r in data["rays"])
            cones = tuple(
                tuple(_strict_int(i, "cone index") - 1 for i in cone) for cone in data["max_cones"]
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed fan data: {exc}") from None
        return Fan(dim, rays, cones)


def fan_to_json(fan: Fan) -> str:
    return json.dumps(_strict_instance(fan, Fan, "fan").to_json_dict())


def fan_from_json(text: str) -> Fan:
    """The one reader of fan JSON text; nesting too deep for the decoder is
    malformed data (ValueError), not a RecursionError."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("malformed fan data: nested too deeply") from None
    return Fan.from_json_dict(data)


def load_fan(path: str) -> Fan:
    with open(path, "r", encoding="utf-8") as handle:
        return fan_from_json(handle.read())


class ValidationReport(NamedTuple):
    accepted: bool
    problems: tuple[str, ...]


class CurveClass(_Frozen):
    """A curve class recorded by its intersection numbers with the divisors.

    The tuple entry i is the pairing with D_i; membership in the curve
    lattice means the weighted ray sum vanishes, which curve_class checks.
    Equality and hash are those of (pairings,).
    """

    __slots__ = ("pairings", "_hash")

    def __init__(self, pairings: Iterable[int]):
        pairings = tuple(pairings)
        for x in pairings:  # one type test per entry: sums and decoded q-keys build classes
            if type(x) is not int:
                _strict_int(x, "pairing")
        object.__setattr__(self, "pairings", pairings)
        # every quantum part is keyed by its class: hash the field once
        object.__setattr__(self, "_hash", hash((pairings,)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.pairings == other.pairings

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return self.__class__, (self.pairings,)

    def __repr__(self) -> str:
        return f"CurveClass(pairings={self.pairings!r})"

    @property
    def degree(self) -> int:
        # anticanonical degree: -K pairs as the sum of all divisors
        return sum(self.pairings)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.pairings)

    def __add__(self, other: "CurveClass") -> "CurveClass":
        return CurveClass(lattice.vadd(self.pairings, other.pairings))

    def __sub__(self, other: "CurveClass") -> "CurveClass":
        return CurveClass(lattice.vsub(self.pairings, other.pairings))

    def scaled(self, c: int) -> "CurveClass":
        return CurveClass(lattice.vscale(c, self.pairings))


def curve_class(fan: Fan, pairings: Sequence[int]) -> CurveClass:
    """Build a CurveClass, checking the kernel condition sum b_i rho_i = 0."""
    if len(pairings) != _strict_instance(fan, Fan, "fan").n_rays:
        raise NotEffective("pairing vector length does not match the ray count")
    cls = CurveClass(tuple(pairings))
    terms = [(b, ray) for b, ray in zip(cls.pairings, fan.rays) if b]
    if any(sum(b * ray[t] for b, ray in terms) for t in range(fan.dim)):
        raise NotEffective("pairings do not define a curve class (ray sum is nonzero)")
    return cls


def _relation_class(fan: Fan, lhs: Iterable[int], rhs: Iterable[tuple[int, int]]) -> CurveClass:
    """The class of sum(rho_i, i in lhs) = sum(a_j rho_j), (j, a_j) in rhs:
    +1 on each lhs ray and -a_j on each rhs ray, checked by curve_class."""
    pairings = [0] * fan.n_rays
    for i in lhs:
        pairings[i] += 1
    for j, a in rhs:
        pairings[j] -= a
    return curve_class(fan, pairings)


class PrimitiveData(NamedTuple):
    """A primitive set with its relation and associated curve class."""

    set: Cone
    rhs_cone: Cone
    rhs_coeffs: tuple[int, ...]
    cls: CurveClass


# The one memo: fan -> compute -> compute(fan), filled by per_fan, and
# complex (dim, n_rays, max_cones) -> _build_complex -> its _Complex, filled
# by _complex; a Fan never equals a tuple, so the two kinds of key never
# meet.  Unbounded: a pass over the benchmark's fan zoo touches about a
# thousand distinct fans and revisits them uniformly, so any bound it reaches
# turns revisits into rebuilds.
_DERIVED: dict[object, dict[Callable, object]] = {}


def per_fan(compute: Callable[[Fan], T]) -> Callable[[Fan], T]:
    """compute, memoized per fan in the one per-fan memo.  Equal fans share
    the value; a raised exception is not stored, so it is raised again on
    the next call."""

    @wraps(compute, updated=())
    def memoized(fan: Fan) -> T:
        try:
            memo = _DERIVED.get(fan)
        except TypeError:  # unhashable, so no Fan: the miss path refuses it by name
            memo = None
        if memo is None:  # the miss path alone checks the argument's type
            memo = _DERIVED[_strict_instance(fan, Fan, "fan")] = {}
        elif compute in memo:
            return memo[compute]
        value = memo[compute] = compute(fan)
        return value

    return memoized


def clear_caches() -> None:
    """Forget everything computed for every fan and every complex."""
    _DERIVED.clear()


def validate(fan: Fan) -> ValidationReport:
    """Check that the data describes a complete nonsingular simplicial fan.

    Nonsingularity is the unimodularity of every maximal cone.  One cone
    per component of the facet graph is inverted over Z, and a walk across
    walls gets the others (kept for cone_inverse): with c the coordinates
    in the near cone of the far ray, which replaces its k-th ray, the far
    determinant is c_k times the near one, and if |c_k| = 1 the far rows
    are phi = c_k phi_k at the far ray and phi_t - c_t phi at the others.
    That the cones cover the space without overlapping is certified on the
    face index by three conditions, the first read off the fan's complex
    alone:

    (1) every facet of a maximal cone lies in exactly two maximal cones;
    (2) every wall separates its two cones: the ray of one cone opposite the
        wall has coordinate -1 at the opposite ray of the other, a row of
        the cone inverse.  Both cones are unimodular, so the coordinate is
        +1 or -1, and +1 puts both cones on one side of the wall;
    (3) the ray sum of the first maximal cone, inside it, has a negative
        coordinate in every other maximal cone, so it lies in no other one.

    Why they suffice: for a point on no wall, count the maximal cones whose
    interior holds it.  Any two such points are joined by a path that misses
    every cone of codimension 2 or more and crosses the walls where no two
    wall hyperplanes meet, since sets of codimension 2 do not disconnect.
    Where the path crosses a wall hyperplane, each cone that ends there ends
    on a facet, which by (1) and (2) is a wall with one cone on each side:
    as many cones end as begin, and the count is constant.  By (3) it is 1
    near the ray sum, so it is 1 everywhere: the cones cover the space and
    their interiors are disjoint.  The facet graph needs no connectivity
    check: each component's cones would satisfy (1) and (2) alone and cover
    the space, so a second component would cover the ray sum again, against (3).
    """
    return _validated(fan)[0]


@per_fan
def _validated(fan: Fan) -> tuple[ValidationReport, Optional[dict], Optional[dict]]:
    """The validation report, with the face index and the cone inverses
    (maximal cone -> cone_inverse) once the fan is accepted, else None.
    The checks that read only the cones come from the fan's _complex."""
    problems: list[str] = []
    n, m = fan.dim, fan.n_rays

    if n == 0:
        if fan.rays == () and fan.max_cones == ((),):
            return ValidationReport(True, ()), {(): [()]}, {(): ()}
        return ValidationReport(False, ("a 0-dimensional fan must be empty",)), None, None

    for i, ray in enumerate(fan.rays):
        if len(ray) != n:
            problems.append(f"ray {i + 1} has length {len(ray)}, expected {n}")
        elif all(x == 0 for x in ray):
            problems.append(f"ray {i + 1} is zero")
        elif lattice.primitive_vector(ray) != ray:
            problems.append(f"ray {i + 1} = {ray} is not primitive")
    if len(set(fan.rays)) != m:
        problems.append("ray generators are not pairwise distinct")

    cx = _complex(fan)
    problems += cx.shape_problems
    if problems:
        return ValidationReport(False, tuple(problems)), None, None
    inverses = _walk_inverses(fan, cx.across)
    bad = [cone for cone in fan.max_cones if inverses[cone] is None]
    problems += [f"cone {_one_based(cone)} is not unimodular" for cone in bad]
    problems += cx.cover_problems
    if not problems:
        for facet, first, k, second, theirs in cx.walls:
            if lattice.dot(inverses[first][k], fan.rays[theirs]) != -1:
                problems.append(
                    f"maximal cones {_one_based(first)} and {_one_based(second)}"
                    f" lie on one side of their facet {_one_based(facet)}"
                )
    if not problems:
        first = fan.max_cones[0]
        inside = tuple(map(sum, zip(*cone_generators(fan, first))))
        for cone in fan.max_cones[1:]:
            if all(lattice.dot(row, inside) >= 0 for row in inverses[cone]):
                problems.append(f"maximal cones {_one_based(first)} and {_one_based(cone)} overlap")
    if problems:
        return ValidationReport(False, tuple(problems)), None, None
    return ValidationReport(True, ()), cx.index, inverses


class _Complex(NamedTuple):
    """What validation reads off the maximal cones alone, shared by every
    fan with the same dimension, ray count and maximal cones.

    shape_problems: no cones, repeated cones, cones of the wrong size or
    with an index out of range; while there are any, the rest is empty.
    index: the face index (module docstring).  cover_problems: rays in no
    maximal cone and facets not in exactly two; while there are any, psets
    is empty.  across: per maximal cone, per position k, the cone across
    the facet opposite its k-th ray and that cone's other ray, None unless
    the facet lies in exactly two cones.  walls: per facet in two cones,
    in index order, (facet, first, k, second, ray): first's k-th ray is the
    one off the facet, and ray is second's.  psets: the primitive sets."""

    shape_problems: tuple[str, ...]
    index: dict[Cone, list[Cone]]
    cover_problems: tuple[str, ...]
    across: dict[Cone, list[Optional[tuple[Cone, int]]]]
    walls: tuple[tuple[Cone, Cone, int, Cone, int], ...]
    psets: tuple[Cone, ...]


def _complex(fan: Fan) -> _Complex:
    """The fan's _Complex, built once per complex and kept in the one memo."""
    key = (fan.dim, fan.n_rays, fan.max_cones)
    memo = _DERIVED.get(key)
    if memo is None:
        memo = _DERIVED[key] = {_build_complex: _build_complex(*key)}
    return memo[_build_complex]


def _build_complex(n: int, m: int, max_cones: tuple[Cone, ...]) -> _Complex:
    """The _Complex of the fans with these maximal cones in dimension n on
    m rays; validate's condition (1) is one of its cover_problems."""
    problems: list[str] = []
    if not max_cones:
        problems.append("no maximal cones")
    if len(set(max_cones)) != len(max_cones):
        problems.append("maximal cones are not distinct")
    for cone in max_cones:
        if len(cone) != n or len(set(cone)) != n:
            problems.append(f"cone {_one_based(cone)} does not have {n} distinct generators")
        elif any(i < 0 or i >= m for i in cone):
            problems.append(f"cone {_one_based(cone)} has a ray index out of range")
    if problems:
        return _Complex(tuple(problems), {}, (), {}, (), ())

    above: dict[Cone, list[Cone]] = {}
    for cone in max_cones:
        for k in range(n + 1):
            for face in combinations(cone, k):
                above.setdefault(face, []).append(cone)
    cover = [f"ray {i + 1} lies in no maximal cone" for i in range(m) if (i,) not in above]
    index = {face: above[face] for face in sorted(above, key=lambda f: (len(f), f))}
    across: dict[Cone, list[Optional[tuple[Cone, int]]]] = {cone: [None] * n for cone in max_cones}
    walls = []
    for facet, owners in index.items():
        if len(facet) != n - 1:
            continue
        if len(owners) != 2:
            cover.append(
                f"facet {_one_based(facet)} lies in {len(owners)} maximal cones, expected 2"
            )
            continue
        first, second = owners
        # each cone is the facet and one ray more
        mine, theirs = sum(first) - sum(facet), sum(second) - sum(facet)
        k, j = first.index(mine), second.index(theirs)
        across[first][k], across[second][j] = (second, theirs), (first, mine)
        walls.append((facet, first, k, second, theirs))
    psets = () if cover else _primitive_sets(index, m)
    return _Complex((), index, tuple(cover), across, tuple(walls), psets)


def _walk_inverses(fan: Fan, across: dict[Cone, list]) -> dict[Cone, Optional[tuple]]:
    """Every maximal cone's inverse, None for one that is not unimodular (validate)."""
    inverses: dict[Cone, Optional[tuple[Vector, ...]]] = {}
    for root in fan.max_cones:
        if root in inverses:
            continue
        mat = lattice.mat_from_columns(cone_generators(fan, root))
        try:
            inverses[root] = tuple(map(tuple, lattice.integer_inverse(mat)))
        except NonUnimodular:
            inverses[root] = None
            continue
        stack = [root]
        while stack:
            near = stack.pop()
            inv = inverses[near]
            for k, step in enumerate(across[near]):
                if step is None or step[0] in inverses:
                    continue
                far, ray = step
                c = lattice.mat_vec(inv, fan.rays[ray])
                if c[k] not in (1, -1):
                    inverses[far] = None
                    continue
                phi = tuple(c[k] * x for x in inv[k])
                rows = {ray: phi}
                for t, (i, f) in enumerate(zip(near, c)):
                    if t != k:
                        rows[i] = tuple(a - f * b for a, b in zip(inv[t], phi)) if f else inv[t]
                inverses[far] = tuple(rows[i] for i in far)
                stack.append(far)
    return inverses


def _one_based(cone: Iterable[int]) -> tuple[int, ...]:
    return tuple(i + 1 for i in cone)


def require_accepted(fan: Fan) -> None:
    _face_index(fan)


def _face_index(fan: Fan) -> dict[Cone, list[Cone]]:
    """The face index of an accepted fan (module docstring); read only, since
    every fan of its complex shares it, owner lists included.  FanNotAccepted,
    carrying the report, for a rejected fan."""
    report, index, _ = _validated(fan)
    if index is None:
        raise FanNotAccepted(report)
    return index


def _ray_indices(fan: Fan, indices: Iterable[int], what: str) -> tuple[int, ...]:
    """A caller's ray or divisor indices, in the given order, once each is an
    int (ValueError naming `what`) naming a ray (IndexOutOfRange, 1-based)."""
    out = tuple(indices)
    for i in out:  # one type test per index: normal forms call this per monomial
        if type(i) is not int:
            _strict_int(i, what)
    m = _strict_instance(fan, Fan, "fan").n_rays
    for i in out:
        if not 0 <= i < m:
            raise IndexOutOfRange(
                f"{what} out of range in {_one_based(out)}; rays are numbered 1 to {m}"
            )
    return out


def _cone_key(fan: Fan, indices: Sequence[int]) -> Cone:
    """The sorted key of a cone argument; ValueError for a non-int index,
    IndexOutOfRange, or NotACone (a repeated index spans no cone)."""
    key = tuple(sorted(_ray_indices(fan, indices, "cone index")))
    if key not in _face_index(fan):
        raise NotACone(f"{_one_based(key)} does not span a cone")
    return key


def faces(fan: Fan) -> list[Cone]:
    """All cones of the fan by dimension then lexicographically (the index keys)."""
    return list(_face_index(fan))


def is_cone(fan: Fan, ray_indices: Sequence[int]) -> bool:
    """Whether the rays span a cone, read off the face index; bad indices raise as in _cone_key."""
    try:
        _cone_key(fan, ray_indices)
    except NotACone:
        return False
    return True


def cone_generators(fan: Fan, cone: Sequence[int]) -> list[Vector]:
    return [fan.rays[i] for i in cone]


def cone_inverse(fan: Fan, max_cone: Cone) -> tuple[Vector, ...]:
    """Inverse of the generator matrix of a maximal cone of an accepted fan.

    The one route to coordinates in a cone; validation computes it.  Row k
    is the dual functional of the cone's k-th generator: it takes the value
    1 on that ray and 0 on the cone's other rays.  max_cone is a sorted
    index tuple, as in fan.max_cones, else NotACone.  FanNotAccepted for a
    rejected fan.
    """
    report, _, inverses = _validated(fan)
    if inverses is None:
        raise FanNotAccepted(report)
    inverse = inverses.get(max_cone)
    if inverse is None:
        raise NotACone(f"{_one_based(max_cone)} is not a maximal cone as a sorted index tuple")
    return inverse


def coords_in_basis(fan: Fan, max_cone: Cone, v: Sequence[int]) -> tuple[int, ...]:
    """Integer coordinates of v in the basis given by a maximal cone."""
    return lattice.mat_vec(cone_inverse(fan, max_cone), v)


@per_fan
def primitive_sets(fan: Fan) -> tuple[Cone, ...]:
    """All primitive sets: minimal collections of rays spanning no cone."""
    _face_index(fan)
    return _complex(fan).psets


def _primitive_sets(index: dict[Cone, list[Cone]], m: int) -> tuple[Cone, ...]:
    # a primitive set minus its largest ray is a nonempty face: extending each
    # nonempty face by each larger ray meets every candidate once, in index order
    found: list[Cone] = []
    for face in index:
        for i in range(face[-1] + 1, m) if face else ():
            cand = face + (i,)
            if cand not in index and all(sub in index for sub in combinations(cand, len(face))):
                found.append(cand)
    return tuple(found)


def primitive_relation(fan: Fan, pset: Sequence[int]) -> PrimitiveData:
    """Locate sum(rho_i, i in pset) in the unique cone holding it interiorly
    and package the relation as primitive data with its curve class.

    The sum has nonnegative coordinates in some maximal cone; the rays with
    positive ones span the cone holding it, with those as coefficients.
    """
    key = tuple(sorted(_ray_indices(fan, pset, "ray index")))
    if key not in primitive_sets(fan):
        raise PreconditionFailed(f"{_one_based(key)} is not a primitive set")
    return _relation(fan, _validated(fan)[2], key)


def _relation(fan: Fan, inverses: dict[Cone, tuple], key: Cone) -> PrimitiveData:
    """primitive_relation of the primitive set key, read off the inverses of
    the accepted fan's maximal cones."""
    total = tuple(map(sum, zip(*(fan.rays[i] for i in key))))
    for cone in fan.max_cones:
        coords = lattice.mat_vec(inverses[cone], total)
        if any(c < 0 for c in coords):
            continue
        face = tuple(i for i, c in zip(cone, coords) if c > 0)
        coeffs = tuple(c for c in coords if c > 0)
        return PrimitiveData(key, face, coeffs, _relation_class(fan, key, zip(face, coeffs)))
    raise LocateFailure(f"sum over {_one_based(key)} lies in no cone; fan is not complete")


@per_fan
def primitive_data(fan: Fan) -> tuple[PrimitiveData, ...]:
    psets = primitive_sets(fan)  # FanNotAccepted first
    inverses = _validated(fan)[2]
    return tuple(_relation(fan, inverses, p) for p in psets)


def star(fan: Fan, sigma: Sequence[int]) -> Fan:
    """The fan of the closed subvariety indexed by the cone sigma.

    Its cones come from the maximal cones above sigma in the face index; it
    lives in N / span(sigma), in the basis the first of them, mu, induces
    on it: the rows of mu's cached inverse for its rays outside sigma vanish
    exactly on span(sigma) and send those rays to the standard basis.  Every
    star ray lies in a maximal cone containing sigma, whose other rays map
    to a basis too, so its image is already primitive; validating the result
    checks it.  The star of the empty cone is the fan itself; that of a
    maximal cone comes out of the same route as the point fan Fan(0, (), ((),)).
    """
    key = _cone_key(fan, sigma)
    if not key:
        return fan
    k = len(key)
    member = set(key)
    above = _face_index(fan)[key]
    mu = above[0]
    proj = [row for i, row in zip(mu, cone_inverse(fan, mu)) if i not in member]
    outside = sorted({i for cone in above for i in cone} - member)
    relabel = {i: t for t, i in enumerate(outside)}
    result = Fan(
        fan.dim - k,
        tuple(lattice.mat_vec(proj, fan.rays[i]) for i in outside),
        tuple(tuple(relabel[i] for i in cone if i not in member) for cone in above),
    )
    require_accepted(result)
    return result


@per_fan
def _sign_prune(fan: Fan) -> tuple[tuple, tuple]:
    """Per search index k, the rays on which no class of primitive_data[k:]
    pairs positively, and those on which none pairs negatively."""
    pdata = primitive_data(fan)
    nonpos, nonneg = [], []
    for k in range(len(pdata) + 1):
        rest = [pd.cls.pairings for pd in pdata[k:]]
        nonpos.append(tuple(i for i in range(fan.n_rays) if all(p[i] <= 0 for p in rest)))
        nonneg.append(tuple(i for i in range(fan.n_rays) if all(p[i] >= 0 for p in rest)))
    return tuple(nonpos), tuple(nonneg)


def decompose_effective(fan: Fan, beta: CurveClass) -> tuple[tuple[PrimitiveData, int], ...]:
    """Write beta as a nonnegative integer combination of primitive classes.

    When the divisors beta meets negatively span a cone sigma, a greedy
    loop subtracts the first primitive class whose set lies in the positive
    support, in batches: each batch takes that class as many times in a
    row as one subtraction per step would, so the result is the same and
    any multiple of one primitive class costs one batch.  The loop never
    stalls.  For beta != 0, sum(beta_i v_i, beta_i > 0) equals
    sum(|beta_i| v_i, beta_i < 0), a point of sigma.  Were the positive
    support a cone, the point would lie in its relative interior, so the
    cone would meet sigma in a common face that is the whole cone and lie
    in sigma; yet it misses sigma's rays, so it would be {0} and beta a
    nonzero relation among the independent rays of sigma.  So the positive
    support spans no cone and holds a primitive set.  Subtracting that
    set's class lowers only positive entries, by one each, and raises only
    its rhs entries, so the negative support stays inside sigma.  The
    NotEffective the loop raises without such a set is a guard.
    Otherwise a depth-first search picks the multiplicity of each primitive
    class in turn, smallest first; on Fano fans the positive degrees of
    primitive classes bound it sharply, and on other fans classes of degree
    <= 0 get a crude multiplicity cap.  Two rules cut it down without
    changing the first decomposition it finds:

    - Sign prune: a remainder that pairs positively with a divisor no later
      class pairs positively with (or negatively where none pairs
      negatively) is dropped, since a sum of the later classes with
      nonnegative multiplicities has no such entry.
    - Failure memo: a state (index, remainder, degree budget) whose subtree
      held no decomposition is never searched again.

    The search keeps its open states on an explicit stack, so its depth, one
    level per primitive class, is not bounded by the recursion limit.  The
    greedy loop takes at most SEARCH_NODE_BUDGET batches and the
    search visits at most as many states; past that either raises
    SearchBudgetExceeded, which proves nothing about beta, so it is not a
    NotEffective.  A beta that is not a CurveClass is refused with ValueError.
    """
    require_accepted(fan)
    curve_class(fan, _strict_instance(beta, CurveClass, "beta").pairings)
    pdata = primitive_data(fan)
    negatives = tuple(i for i, b in enumerate(beta.pairings) if b < 0)
    if is_cone(fan, negatives):
        counts: dict[Cone, int] = {}
        current = list(beta.pairings)
        steps = 0
        while any(x != 0 for x in current):
            steps += 1
            if steps > SEARCH_NODE_BUDGET:
                raise SearchBudgetExceeded(
                    f"greedy decomposition took more than {SEARCH_NODE_BUDGET} steps"
                )
            positives = {i for i, b in enumerate(current) if b > 0}
            chosen = None
            for at, pd in enumerate(pdata):
                if set(pd.set).issubset(positives):
                    chosen = pd
                    break
            if chosen is None:
                raise NotEffective("no primitive set lies in the positive support")
            # Subtract the class k times at once, k the number of times in a
            # row it would be the first eligible class.  It pairs to 1 with
            # the divisors of its set, so it stays eligible while they stay
            # positive, and negatively with its rhs rays, whose entries grow:
            # an earlier class turns eligible after the subtraction that
            # lifts the last entry it lacks past 0, -x // -p + 1 for entry x.
            p = chosen.cls.pairings
            k = min(current[i] for i in chosen.set)
            for pd in pdata[:at]:
                if all(current[i] > 0 or p[i] < 0 for i in pd.set):
                    lift = max(-current[i] // -p[i] + 1 for i in pd.set if current[i] <= 0)
                    k = min(k, lift)
            counts[chosen.set] = counts.get(chosen.set, 0) + k
            current = [x - k * y for x, y in zip(current, p)]
        by_set = {pd.set: pd for pd in pdata}
        return tuple((by_set[s], c) for s, c in sorted(counts.items()))

    degree = beta.degree
    crude_cap = sum(abs(b) for b in beta.pairings) + 4
    must_be_nonpos, must_be_nonneg = _sign_prune(fan)
    failed: set[tuple[int, tuple[int, ...], int]] = set()
    if degree < 0 and all(pd.cls.degree > 0 for pd in pdata):
        raise NotEffective("negative degree")

    # one open state per class on the path: [idx, remaining, budget, next count, cap];
    # class idx takes multiplicity (next count - 1) in the state below it
    stack: list[list] = []
    idx, remaining, budget = 0, beta.pairings, max(degree, 0)
    nodes = 0
    while True:
        nodes += 1
        if nodes > SEARCH_NODE_BUDGET:
            raise SearchBudgetExceeded(
                f"effectivity search visited more than {SEARCH_NODE_BUDGET} states"
            )
        if all(x == 0 for x in remaining):
            return tuple((pdata[f[0]], f[3] - 1) for f in stack if f[3] > 1)
        # past the last class every ray is in both lists: only zero gets through
        pruned = any(remaining[i] > 0 for i in must_be_nonpos[idx]) or any(
            remaining[i] < 0 for i in must_be_nonneg[idx]
        )
        if not pruned and (idx, remaining, budget) not in failed:
            deg = pdata[idx].cls.degree
            stack.append([idx, remaining, budget, 0, budget // deg if deg > 0 else crude_cap])
        # descend into the next multiplicity of the deepest open state
        while stack:
            frame = stack[-1]
            top, rem, left, count, cap = frame
            if count <= cap:
                frame[3] = count + 1
                pd = pdata[top]
                deg = pd.cls.degree
                idx = top + 1
                remaining = tuple(r - count * p for r, p in zip(rem, pd.cls.pairings))
                budget = left - count * deg if deg > 0 else left
                break
            failed.add((top, rem, left))
            stack.pop()
        else:
            raise NotEffective(
                "not a nonnegative combination of primitive classes within the search bound"
            )


def is_isomorphic(a: Fan, b: Fan) -> bool:
    """Decide unimodular equivalence by anchoring a maximal cone of one fan
    to each generator-permuted maximal cone of the other."""
    if _strict_instance(a, Fan, "fan a").dim != _strict_instance(b, Fan, "fan b").dim:
        raise DimensionMismatch(f"fans have dimensions {a.dim} and {b.dim}")
    require_accepted(a)
    require_accepted(b)
    if a.n_rays != b.n_rays or len(a.max_cones) != len(b.max_cones):
        return False
    # the map sending the anchor cone's generators to perm's is G_b(perm) * G_a^-1
    coords = [coords_in_basis(a, a.max_cones[0], ray) for ray in a.rays]
    cones_b = set(b.max_cones)
    lookup = {ray: idx for idx, ray in enumerate(b.rays)}
    for cone in b.max_cones:
        for perm in permutations(cone):
            gmat = lattice.mat_from_columns(cone_generators(b, perm))
            image = [lattice.mat_vec(gmat, c) for c in coords]
            if set(image) != lookup.keys():
                continue
            relabeled = {
                tuple(sorted(lookup[image[i]] for i in cone_a)) for cone_a in a.max_cones
            }
            if relabeled == cones_b:
                return True
    return False
