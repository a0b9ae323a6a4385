"""Complete nonsingular simplicial fans and their curve-class combinatorics.

A fan is held as the lattice dimension, the ray generator list, and the
maximal cones as sorted index tuples (0-based internally; the JSON format
and all CLI output are 1-based).  Validation returns a report instead of
raising so rejected inputs can be inspected; everything downstream insists
on an accepted fan.
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
    NotACone,
    NotEffective,
    PreconditionFailed,
    SearchBudgetExceeded,
)

Vector = tuple[int, ...]
Cone = tuple[int, ...]

# States the effectivity search may visit before it gives up.  The hardest
# non-effective class a*beta_i - beta_j (a <= 3) on bl3p2, bl2xp1 and bl3xp1
# takes under 700; 100k states take about 0.3 s on a six-ray surface.
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
    if fan.dim > 0:
        total = [0] * fan.dim
        for b, ray in zip(cls.pairings, fan.rays):
            for t in range(fan.dim):
                total[t] += b * ray[t]
        if any(x != 0 for x in total):
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
    """Lazily computed per-fan combinatorics, shared by all modules."""

    def __init__(self, fan: Fan):
        self.fan = fan
        self.report: Optional[ValidationReport] = None
        self.face_set: Optional[frozenset] = None
        self.faces: Optional[list[Cone]] = None
        self.psets: Optional[tuple[Cone, ...]] = None
        self.pdata: Optional[tuple[PrimitiveData, ...]] = None
        self.facet_map: Optional[dict] = None
        self.sign_prune: Optional[tuple] = None
        self.cone_inverse: dict[Cone, tuple[Vector, ...]] = {}


_DERIVED: dict[Fan, _Derived] = {}


def _derived(fan: Fan) -> _Derived:
    d = _DERIVED.get(fan)
    if d is None:
        d = _Derived(fan)
        _DERIVED[fan] = d
    return d


def validate(fan: Fan) -> ValidationReport:
    """Check that the data describes a complete nonsingular simplicial fan.

    Nonsingularity is the unimodularity of every maximal cone; completeness
    is certified combinatorially: every facet of a maximal cone must lie in
    exactly two maximal cones and the facet-adjacency graph must be
    connected.
    """
    d = _derived(fan)
    if d.report is not None:
        return d.report

    problems: list[str] = []
    n, m = fan.dim, fan.n_rays

    if n == 0:
        ok = fan.rays == () and fan.max_cones == ((),)
        report = ValidationReport(ok, () if ok else ("a 0-dimensional fan must be empty",))
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
            det = lattice.determinant(lattice.mat_from_columns([fan.rays[i] for i in cone]))
            if abs(det) != 1:
                problems.append(f"cone {_one_based(cone)} has determinant {det}")

        used = set()
        for cone in fan.max_cones:
            used.update(cone)
        for i in range(m):
            if i not in used:
                problems.append(f"ray {i + 1} lies in no maximal cone")

        facet_count: dict[Cone, list[int]] = {}
        for ci, cone in enumerate(fan.max_cones):
            for facet in combinations(cone, n - 1):
                facet_count.setdefault(facet, []).append(ci)
        for facet, owners in sorted(facet_count.items()):
            if len(owners) != 2:
                problems.append(
                    f"facet {_one_based(facet)} lies in {len(owners)} maximal cones, expected 2"
                )
        if not problems:
            seen = {0}
            queue = [0]
            while queue:
                ci = queue.pop()
                cone = fan.max_cones[ci]
                for facet in combinations(cone, n - 1):
                    for other in facet_count[facet]:
                        if other not in seen:
                            seen.add(other)
                            queue.append(other)
            if len(seen) != len(fan.max_cones):
                problems.append("facet-adjacency graph is disconnected")
            else:
                d.facet_map = facet_count

    report = ValidationReport(not problems, tuple(problems))
    d.report = report
    return report


def _one_based(cone: Iterable[int]) -> tuple[int, ...]:
    return tuple(i + 1 for i in cone)


def require_accepted(fan: Fan) -> None:
    report = validate(fan)
    if not report.accepted:
        raise FanNotAccepted(report)


def _facet_map(fan: Fan) -> dict:
    require_accepted(fan)
    return _derived(fan).facet_map


def _face_set(fan: Fan) -> frozenset:
    d = _derived(fan)
    if d.face_set is None:
        require_accepted(fan)
        faces = set()
        for cone in fan.max_cones:
            for k in range(len(cone) + 1):
                faces.update(combinations(cone, k))
        d.face_set = frozenset(faces)
        d.faces = sorted(faces, key=lambda f: (len(f), f))
    return d.face_set


def faces(fan: Fan) -> list[Cone]:
    """All cones of the fan, sorted by dimension then lexicographically."""
    _face_set(fan)
    return list(_derived(fan).faces)


def is_cone(fan: Fan, ray_indices: Sequence[int]) -> bool:
    idx = tuple(sorted(ray_indices))
    if any(i < 0 or i >= fan.n_rays for i in idx):
        raise IndexOutOfRange(f"ray index out of range in {_one_based(idx)}")
    if len(set(idx)) != len(idx):
        return False
    return idx in _face_set(fan)


def cone_generators(fan: Fan, cone: Sequence[int]) -> list[Vector]:
    return [fan.rays[i] for i in cone]


def coords_in_basis(fan: Fan, max_cone: Cone, v: Sequence[int]) -> tuple[int, ...]:
    """Integer coordinates of v in the basis given by a maximal cone."""
    d = _derived(fan)
    inv = d.cone_inverse.get(max_cone)
    if inv is None:
        mat = lattice.mat_from_columns(cone_generators(fan, max_cone))
        inv = tuple(tuple(row) for row in lattice.integer_inverse(mat))
        d.cone_inverse[max_cone] = inv
    return lattice.mat_vec(inv, v)


def primitive_sets(fan: Fan) -> tuple[Cone, ...]:
    """All primitive sets: minimal collections of rays spanning no cone."""
    d = _derived(fan)
    if d.psets is None:
        face_set = _face_set(fan)
        m, n = fan.n_rays, fan.dim
        found: list[Cone] = []
        for k in range(2, min(m, n + 1) + 1):
            for cand in combinations(range(m), k):
                if cand in face_set:
                    continue
                if all(sub in face_set for sub in combinations(cand, k - 1)):
                    found.append(cand)
        d.psets = tuple(sorted(found, key=lambda p: (len(p), p)))
    return d.psets


def primitive_relation(fan: Fan, pset: Sequence[int]) -> PrimitiveData:
    """Locate sum(rho_i, i in pset) in the unique cone holding it interiorly
    and package the relation as primitive data with its curve class."""
    key = tuple(sorted(pset))
    if key not in primitive_sets(fan):
        raise PreconditionFailed(f"{_one_based(key)} is not a primitive set")
    total = fan.rays[key[0]]
    for i in key[1:]:
        total = lattice.vadd(total, fan.rays[i])
    for face in faces(fan):
        hit = lattice.express_in_cone(total, cone_generators(fan, face))
        if hit is None:
            continue
        coeffs, interior = hit
        if not interior:
            continue
        ints = []
        for c in coeffs:
            if c.denominator != 1:
                raise LocateFailure(
                    f"sum over {_one_based(key)} has non-integer coordinates in {_one_based(face)}"
                )
            ints.append(int(c))
        pairings = [0] * fan.n_rays
        for i in key:
            pairings[i] += 1
        for j, a in zip(face, ints):
            pairings[j] -= a
        return PrimitiveData(key, face, tuple(ints), curve_class(fan, pairings))
    raise LocateFailure(f"sum over {_one_based(key)} lies in no cone; fan is not complete")


def primitive_data(fan: Fan) -> tuple[PrimitiveData, ...]:
    d = _derived(fan)
    if d.pdata is None:
        d.pdata = tuple(primitive_relation(fan, p) for p in primitive_sets(fan))
    return d.pdata


def star(fan: Fan, sigma: Sequence[int]) -> Fan:
    """The fan of the closed subvariety indexed by the cone sigma.

    Lives in the quotient lattice N / span(sigma); ray images are taken with
    the Smith-form projection and re-primitivized.  The star of the empty
    cone is the fan itself.
    """
    require_accepted(fan)
    key = tuple(sorted(sigma))
    if not is_cone(fan, key):
        raise NotACone(f"{_one_based(key)} does not span a cone")
    if not key:
        return fan
    k = len(key)
    if k == fan.dim:
        return Fan(0, (), ((),))
    proj = lattice.quotient_map(cone_generators(fan, key))

    member = set(key)
    star_rays: list[Vector] = []
    ray_index: dict[Vector, int] = {}
    source: dict[int, int] = {}
    new_cones = []
    for cone in fan.max_cones:
        if not member.issubset(cone):
            continue
        image = []
        for i in cone:
            if i in member:
                continue
            w = lattice.primitive_vector(lattice.mat_vec(proj, fan.rays[i]))
            pos = ray_index.get(w)
            if pos is None:
                pos = len(star_rays)
                ray_index[w] = pos
                star_rays.append(w)
                source[pos] = i
            elif source[pos] != i:
                raise LocateFailure("distinct rays collide in the star quotient")
            image.append(pos)
        new_cones.append(tuple(sorted(image)))
    order = sorted(range(len(star_rays)), key=lambda p: source[p])
    relabel = {old: new for new, old in enumerate(order)}
    result = Fan(
        fan.dim - k,
        tuple(star_rays[p] for p in order),
        tuple(tuple(sorted(relabel[i] for i in cone)) for cone in new_cones),
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

    The search visits at most SEARCH_NODE_BUDGET states and raises
    SearchBudgetExceeded past that; running out proves nothing about beta,
    so it is not a NotEffective.
    """
    require_accepted(fan)
    if len(beta.pairings) != fan.n_rays:
        raise NotEffective("pairing vector length does not match the ray count")
    curve_class(fan, beta.pairings)
    if beta.is_zero():
        return ()
    pdata = primitive_data(fan)
    negatives = tuple(i for i, b in enumerate(beta.pairings) if b < 0)
    if is_cone(fan, negatives):
        counts: dict[Cone, int] = {}
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
    anchor = a.max_cones[0]
    anchor_inv = lattice.integer_inverse(lattice.mat_from_columns(cone_generators(a, anchor)))
    rays_b = set(b.rays)
    cones_b = set(b.max_cones)
    for cone in b.max_cones:
        for perm in permutations(cone):
            gmat = lattice.mat_from_columns(cone_generators(b, perm))
            mapmat = [
                [sum(gmat[i][k] * anchor_inv[k][j] for k in range(a.dim)) for j in range(a.dim)]
                for i in range(a.dim)
            ]
            image = [lattice.mat_vec(mapmat, ray) for ray in a.rays]
            if set(image) != rays_b:
                continue
            lookup = {ray: idx for idx, ray in enumerate(b.rays)}
            relabeled = {
                tuple(sorted(lookup[image[i]] for i in cone_a)) for cone_a in a.max_cones
            }
            if relabeled == cones_b:
                return True
    return False
