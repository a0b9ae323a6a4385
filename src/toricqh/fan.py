"""Complete nonsingular simplicial fans and their curve-class combinatorics.

A fan is held as the lattice dimension, the ray generator list, and the
maximal cones as sorted index tuples (0-based internally; the JSON format
and all CLI output are 1-based).  Validation returns a report instead of
raising so rejected inputs can be inspected; everything downstream insists
on an accepted fan.  Validation also builds the face index, which answers
every cone question: each cone, by dimension then lexicographically, mapped
to the maximal cones containing it in fan.max_cones order.  _cone_key is the
one check that turns a caller's cone argument into its sorted key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable, Optional, Sequence

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

# States the effectivity search may visit, and subtractions its greedy loop
# may take, before it gives up.  The hardest non-effective class
# a*beta_i - beta_j (a <= 3) on bl3p2, bl2xp1 and bl3xp1 takes under 700
# states; 100k states take about 0.3 s on a six-ray surface, and 100k greedy
# steps about 0.4 s on P^2.
SEARCH_NODE_BUDGET = 100_000


def _strict_int(x, what: str) -> int:
    # exactly int: a float, a bool or a numeric string is refused, not coerced
    if type(x) is not int:
        raise ValueError(f"{what} {x!r} is not an integer")
    return x


@dataclass(frozen=True)
class Fan:
    dim: int
    rays: tuple[Vector, ...]
    max_cones: tuple[Cone, ...]

    def __post_init__(self):
        if type(self.dim) is not int or self.dim < 0:
            raise ValueError("dim must be a nonnegative integer")
        rays = tuple(tuple(_strict_int(x, "ray entry") for x in ray) for ray in self.rays)
        cones = tuple(
            sorted(tuple(sorted(_strict_int(i, "cone index") for i in cone)) for cone in self.max_cones)
        )
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", cones)
        # every per-fan cache lookup hashes the fan: hash the fields once
        object.__setattr__(self, "_hash", hash((self.dim, rays, cones)))

    def __hash__(self) -> int:
        return self._hash

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
    return json.dumps(fan.to_json_dict())


def fan_from_json(text: str) -> Fan:
    return Fan.from_json_dict(json.loads(text))


def load_fan(path: str) -> Fan:
    with open(path, "r", encoding="utf-8") as handle:
        return Fan.from_json_dict(json.load(handle))


@dataclass(frozen=True)
class ValidationReport:
    accepted: bool
    problems: tuple[str, ...]


@dataclass(frozen=True)
class CurveClass:
    """A curve class recorded by its intersection numbers with the divisors.

    The tuple entry i is the pairing with D_i; membership in the curve
    lattice means the weighted ray sum vanishes, which curve_class checks.
    """

    pairings: tuple[int, ...]

    def __post_init__(self):
        pairings = tuple(self.pairings)
        for x in pairings:  # one type test per entry: __add__ runs on every q-shift
            if type(x) is not int:
                _strict_int(x, "pairing")
        object.__setattr__(self, "pairings", pairings)

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
    if len(pairings) != fan.n_rays:
        raise NotEffective("pairing vector length does not match the ray count")
    cls = CurveClass(tuple(pairings))
    if any(sum(b * ray[t] for b, ray in zip(cls.pairings, fan.rays)) for t in range(fan.dim)):
        raise NotEffective("pairings do not define a curve class (ray sum is nonzero)")
    return cls


@dataclass(frozen=True)
class PrimitiveData:
    """A primitive set with its relation and associated curve class."""

    set: Cone
    rhs_cone: Cone
    rhs_coeffs: tuple[int, ...]
    cls: CurveClass


class _Derived:
    """The one per-fan context: everything computed for a fan, filled lazily
    by the module that computes it and shared by all modules."""

    def __init__(self, fan: Fan):
        self.fan = fan
        self.report: Optional[ValidationReport] = None
        self.face_index: Optional[dict[Cone, list[Cone]]] = None  # set once accepted
        self.psets: Optional[tuple[Cone, ...]] = None
        self.pdata: Optional[tuple[PrimitiveData, ...]] = None
        self.sign_prune: Optional[tuple] = None
        self.cone_inverse: dict[Cone, tuple[Vector, ...]] = {}
        # filled by the modules built on this one, which it cannot import
        self.tier = None  # fano.ClassTier
        self.exceptional = None  # tuple of fano.ExceptionalData
        self.cohomology_ring = None  # cohomology._CohomologyRing
        self.quantum_ring = None  # quantum._QuantumRing


# Unbounded: a pass over the benchmark's fan zoo touches about a thousand
# distinct fans and revisits them uniformly, so any bound it reaches turns
# revisits into rebuilds.
_DERIVED: dict[Fan, _Derived] = {}


def clear_caches() -> None:
    """Forget everything computed for every fan."""
    _DERIVED.clear()


def _derived(fan: Fan) -> _Derived:
    d = _DERIVED.get(fan)
    if d is None:
        d = _Derived(fan)
        _DERIVED[fan] = d
    return d


def validate(fan: Fan) -> ValidationReport:
    """Check that the data describes a complete nonsingular simplicial fan.

    Nonsingularity is the unimodularity of every maximal cone, checked by
    inverting it over Z once into the cone_inverse cache (a determinant only
    words the problem of a cone that fails); completeness is certified
    combinatorially on the face index: every facet of a maximal cone must
    lie in exactly two maximal cones and the facet-adjacency graph must be
    connected.  The index is kept for an accepted fan.
    """
    d = _derived(fan)
    if d.report is not None:
        return d.report

    problems: list[str] = []
    n, m = fan.dim, fan.n_rays

    if n == 0:
        ok = fan.rays == () and fan.max_cones == ((),)
        report = ValidationReport(ok, () if ok else ("a 0-dimensional fan must be empty",))
        if ok:
            d.face_index = {(): [()]}
        d.report = report
        return report

    for i, ray in enumerate(fan.rays):
        if len(ray) != n:
            problems.append(f"ray {i + 1} has length {len(ray)}, expected {n}")
        elif all(x == 0 for x in ray):
            problems.append(f"ray {i + 1} is zero")
        elif lattice.primitive_vector(ray) != ray:
            problems.append(f"ray {i + 1} = {ray} is not primitive")
    if len(set(fan.rays)) != m:
        problems.append("ray generators are not pairwise distinct")

    if not fan.max_cones:
        problems.append("no maximal cones")
    if len(set(fan.max_cones)) != len(fan.max_cones):
        problems.append("maximal cones are not distinct")

    structurally_ok = not problems
    for cone in fan.max_cones:
        if len(cone) != n or len(set(cone)) != n:
            problems.append(f"cone {_one_based(cone)} does not have {n} distinct generators")
            structurally_ok = False
            continue
        if any(i < 0 or i >= m for i in cone):
            problems.append(f"cone {_one_based(cone)} has a ray index out of range")
            structurally_ok = False

    if structurally_ok:
        for cone in fan.max_cones:
            try:
                cone_inverse(fan, cone)
            except NonUnimodular:
                det = lattice.determinant(lattice.mat_from_columns(cone_generators(fan, cone)))
                problems.append(f"cone {_one_based(cone)} has determinant {det}")

        above: dict[Cone, list[Cone]] = {}
        for cone in fan.max_cones:
            for k in range(n + 1):
                for face in combinations(cone, k):
                    above.setdefault(face, []).append(cone)
        for i in range(m):
            if (i,) not in above:
                problems.append(f"ray {i + 1} lies in no maximal cone")
        index = {face: above[face] for face in sorted(above, key=lambda f: (len(f), f))}
        for facet, owners in index.items():
            if len(facet) == n - 1 and len(owners) != 2:
                problems.append(
                    f"facet {_one_based(facet)} lies in {len(owners)} maximal cones, expected 2"
                )
        if not problems:
            seen = {fan.max_cones[0]}
            queue = [fan.max_cones[0]]
            while queue:
                for facet in combinations(queue.pop(), n - 1):
                    for other in index[facet]:
                        if other not in seen:
                            seen.add(other)
                            queue.append(other)
            if len(seen) != len(fan.max_cones):
                problems.append("facet-adjacency graph is disconnected")
            else:
                d.face_index = index

    report = ValidationReport(not problems, tuple(problems))
    d.report = report
    return report


def _one_based(cone: Iterable[int]) -> tuple[int, ...]:
    return tuple(i + 1 for i in cone)


def require_accepted(fan: Fan) -> None:
    report = validate(fan)
    if not report.accepted:
        raise FanNotAccepted(report)


def _face_index(fan: Fan) -> dict[Cone, list[Cone]]:
    """The face index of an accepted fan (module docstring); read only."""
    d = _derived(fan)
    if d.face_index is None:
        require_accepted(fan)
    return d.face_index


def _cone_key(fan: Fan, indices: Sequence[int]) -> Cone:
    """The sorted key of a cone argument; ValueError for a non-int index,
    IndexOutOfRange, or NotACone (a repeated index spans no cone)."""
    for i in indices:  # refused before sorting, which a None would break
        _strict_int(i, "cone index")
    key = tuple(sorted(indices))
    if any(i < 0 or i >= fan.n_rays for i in key):
        raise IndexOutOfRange(f"ray index out of range in {_one_based(key)}")
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
    """Inverse of the generator matrix of a maximal cone, cached per fan.

    The one route to coordinates in a cone; validation fills it.  Row k is
    the dual functional of the cone's k-th generator: it takes the value 1
    on that ray and 0 on the cone's other rays.  Keys are sorted index
    tuples, as in fan.max_cones.
    """
    d = _derived(fan)
    inv = d.cone_inverse.get(max_cone)
    if inv is None:
        mat = lattice.mat_from_columns(cone_generators(fan, max_cone))
        inv = tuple(tuple(row) for row in lattice.integer_inverse(mat))
        d.cone_inverse[max_cone] = inv
    return inv


def coords_in_basis(fan: Fan, max_cone: Cone, v: Sequence[int]) -> tuple[int, ...]:
    """Integer coordinates of v in the basis given by a maximal cone."""
    return lattice.mat_vec(cone_inverse(fan, max_cone), v)


def primitive_sets(fan: Fan) -> tuple[Cone, ...]:
    """All primitive sets: minimal collections of rays spanning no cone."""
    d = _derived(fan)
    if d.psets is None:
        index = _face_index(fan)
        m, n = fan.n_rays, fan.dim
        found: list[Cone] = []
        for k in range(2, min(m, n + 1) + 1):
            for cand in combinations(range(m), k):
                if cand in index:
                    continue
                if all(sub in index for sub in combinations(cand, k - 1)):
                    found.append(cand)
        d.psets = tuple(sorted(found, key=lambda p: (len(p), p)))
    return d.psets


def primitive_relation(fan: Fan, pset: Sequence[int]) -> PrimitiveData:
    """Locate sum(rho_i, i in pset) in the unique cone holding it interiorly
    and package the relation as primitive data with its curve class.

    The sum has nonnegative coordinates in some maximal cone; the rays with
    positive ones span the cone holding it, with those as coefficients.
    """
    for i in pset:  # refused before sorting, which a None would break
        _strict_int(i, "ray index")
    key = tuple(sorted(pset))
    if key not in primitive_sets(fan):
        raise PreconditionFailed(f"{_one_based(key)} is not a primitive set")
    total = tuple(map(sum, zip(*(fan.rays[i] for i in key))))
    for cone in fan.max_cones:
        coords = coords_in_basis(fan, cone, total)
        if any(c < 0 for c in coords):
            continue
        face = tuple(i for i, c in zip(cone, coords) if c > 0)
        coeffs = tuple(c for c in coords if c > 0)
        pairings = [0] * fan.n_rays
        for i in key:
            pairings[i] += 1
        for j, a in zip(face, coeffs):
            pairings[j] -= a
        return PrimitiveData(key, face, coeffs, curve_class(fan, pairings))
    raise LocateFailure(f"sum over {_one_based(key)} lies in no cone; fan is not complete")


def primitive_data(fan: Fan) -> tuple[PrimitiveData, ...]:
    d = _derived(fan)
    if d.pdata is None:
        d.pdata = tuple(primitive_relation(fan, p) for p in primitive_sets(fan))
    return d.pdata


def star(fan: Fan, sigma: Sequence[int]) -> Fan:
    """The fan of the closed subvariety indexed by the cone sigma.

    Its cones come from the maximal cones above sigma in the face index; it
    lives in N / span(sigma), in the basis the first of them, mu, induces
    on it: the rows of mu's cached inverse for its rays outside sigma vanish
    exactly on span(sigma) and send those rays to the standard basis.  Every
    star ray lies in a maximal cone containing sigma, whose other rays map
    to a basis too, so its image is already primitive; validating the result
    checks it.  The star of the empty cone is the fan itself.
    """
    key = _cone_key(fan, sigma)
    if not key:
        return fan
    k = len(key)
    if k == fan.dim:
        return Fan(0, (), ((),))
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


def _sign_prune(fan: Fan) -> tuple[tuple, tuple]:
    """Per search index k, the rays on which no class of primitive_data[k:]
    pairs positively, and those on which none pairs negatively."""
    d = _derived(fan)
    if d.sign_prune is None:
        pdata = primitive_data(fan)
        nonpos, nonneg = [], []
        for k in range(len(pdata) + 1):
            rest = [pd.cls.pairings for pd in pdata[k:]]
            nonpos.append(tuple(i for i in range(fan.n_rays) if all(p[i] <= 0 for p in rest)))
            nonneg.append(tuple(i for i in range(fan.n_rays) if all(p[i] >= 0 for p in rest)))
        d.sign_prune = (tuple(nonpos), tuple(nonneg))
    return d.sign_prune


def decompose_effective(fan: Fan, beta: CurveClass) -> tuple[tuple[PrimitiveData, int], ...]:
    """Write beta as a nonnegative integer combination of primitive classes.

    When the divisors beta meets negatively span a cone, the greedy
    subtraction is guaranteed to succeed exactly when beta is effective.
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

    The greedy loop takes at most SEARCH_NODE_BUDGET subtractions and the
    search visits at most as many states; past that either raises
    SearchBudgetExceeded, which proves nothing about beta, so it is not a
    NotEffective.
    """
    require_accepted(fan)
    curve_class(fan, beta.pairings)
    if beta.is_zero():
        return ()
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
    target = beta.pairings
    must_be_nonpos, must_be_nonneg = _sign_prune(fan)
    failed: set[tuple[int, tuple[int, ...], int]] = set()
    nodes = 0

    def search(idx: int, remaining: tuple[int, ...], budget: int):
        nonlocal nodes
        nodes += 1
        if nodes > SEARCH_NODE_BUDGET:
            raise SearchBudgetExceeded(
                f"effectivity search visited more than {SEARCH_NODE_BUDGET} states"
            )
        if all(x == 0 for x in remaining):
            return []
        # past the last class every ray is in both lists: only zero gets through
        if any(remaining[i] > 0 for i in must_be_nonpos[idx]) or any(
            remaining[i] < 0 for i in must_be_nonneg[idx]
        ):
            return None
        state = (idx, remaining, budget)
        if state in failed:
            return None
        pd = pdata[idx]
        deg = pd.cls.degree
        cap = budget // deg if deg > 0 else crude_cap
        for count in range(cap + 1):
            rem = tuple(r - count * p for r, p in zip(remaining, pd.cls.pairings))
            rest = search(idx + 1, rem, budget - count * deg if deg > 0 else budget)
            if rest is not None:
                return ([(pd, count)] if count else []) + rest
        failed.add(state)
        return None

    if degree < 0 and all(pd.cls.degree > 0 for pd in pdata):
        raise NotEffective("negative degree")
    found = search(0, target, max(degree, 0))
    if found is None:
        raise NotEffective(
            "not a nonnegative combination of primitive classes within the search bound"
        )
    return tuple(found)


def is_isomorphic(a: Fan, b: Fan) -> bool:
    """Decide unimodular equivalence by anchoring a maximal cone of one fan
    to each generator-permuted maximal cone of the other."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"fans have dimensions {a.dim} and {b.dim}")
    require_accepted(a)
    require_accepted(b)
    if a.n_rays != b.n_rays or len(a.max_cones) != len(b.max_cones):
        return False
    if a.dim == 0:
        return True
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
