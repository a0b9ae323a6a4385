"""One benchmark process: reads a job as JSON on stdin, runs it against the
package's public API, and prints one JSON result line on stdout.

A job sets up its fans (load, validate, primitive data, classify, shelling,
ring in every degree), builds the full multiplication table, runs the
quantum power chains and the rewrite batch, and then a closed-loop stream of
queries.  Every result is checked outside the timed regions; a wrong result,
an unexpected exception or a time-cap hit counts as one failed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import signal
import sys
import time
from math import comb

T_START = time.monotonic()

# the import is part of a cold start
from toricqh import catalog, cli, cohomology, curves, errors, fan as fan_mod, fano, quantum  # noqa: E402
from toricqh.fan import CurveClass  # noqa: E402

import inputs  # noqa: E402
import speed  # noqa: E402

T_IMPORTED = time.monotonic()


class TimeCap(BaseException):
    """Raised by the alarm when an operation runs past the time cap.

    A BaseException, so that no handler inside the package swallows it."""


def _on_alarm(signum, frame):
    raise TimeCap()


class Tracer:
    """Spans around the benchmark's own calls into the package.

    Each span is [id, parent id, name, start, end, tag, detail]; spans stay
    in memory and go out with the result.  Disabled, a call is a plain call.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.tag = ""

    def call(self, name: str, fn, *args, detail: str = ""):
        if not self.enabled:
            return fn(*args)
        rec = [len(self.spans), self._stack[-1] if self._stack else -1, name, 0.0, 0.0, self.tag, detail]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[3] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()


class CheckFailed(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def canonical(fan, qc) -> list:
    """A quantum class in the shape of the CLI's --json product, sorted."""
    taus = cohomology.basis_tau(fan)
    return sorted(
        [
            list(beta.pairings),
            sorted([[i + 1 for i in taus[idx]], str(c)] for idx, c in cls.coords.items()),
        ]
        for beta, cls in qc.parts.items()
    )


class Job:
    def __init__(self, spec: dict):
        self.cap_s = float(spec["cap_s"])
        self.tr = Tracer(bool(spec["trace"]))
        self.rng = random.Random(spec["seed"])
        self.attempted = 0
        self.failures: list[str] = []
        self.counts: dict[str, int] = {}
        self.fans: dict[str, object] = {}
        # seconds spent in checks, reference samples and other benchmark
        # code between timed regions; table_s is reported net of it
        self.untimed_s = 0.0
        with self.untimed():
            self.speed = speed.Sampler()
        # measured intervals [t0, t1] of time.monotonic(); the client scales
        # each by the reference samples near it
        self.out: dict = {"setup": {}, "chain": {}, "rewrite": {}, "products": {}, "fans": {}}

    # ------------------------------------------------------------ plumbing

    @contextlib.contextmanager
    def untimed(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.untimed_s += time.perf_counter() - t0

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def op(self, what: str, timed, check=None):
        """Run timed() under the time cap, then check(result) untimed.

        Returns ([t0, t1] of time.monotonic(), result), or (None, None) on
        failure."""
        self.attempted += 1
        signal.setitimer(signal.ITIMER_REAL, self.cap_s)
        try:
            t0 = time.monotonic()
            result = timed()
            t1 = time.monotonic()
        except TimeCap:
            self.failures.append(f"{what}: did not finish within {self.cap_s:g} s")
            return None, None
        except Exception as exc:  # noqa: BLE001 - every unexpected error is a failed operation
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return None, None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        with self.untimed():
            self.speed.after(t1 - t0)
            if check is not None:
                try:
                    check(result)
                except Exception as exc:  # noqa: BLE001 - a wrong result is a failed operation
                    self.failures.append(f"{what}: check failed: {type(exc).__name__}: {exc}")
                    return None, None
        return [t0, t1], result

    def stage(self, fan, ring: bool) -> None:
        """The pipeline in order, so each span finds its predecessors cached."""
        call = self.tr.call
        report = call("fan.validate", fan_mod.validate, fan)
        if not report.accepted:
            raise errors.FanNotAccepted(report)
        call("fan.primitive", fan_mod.primitive_data, fan)
        call("fano.classify", fano.classify, fan)
        if ring:
            call("cohomology.shelling", cohomology.shelling, fan)
            for d in range(fan.dim + 1):
                name = "cohomology.ring_top" if d == fan.dim else "cohomology.ring_lower"
                call(name, cohomology.degree_dimension, fan, d, detail=f"d{d}")

    # ------------------------------------------------------------ setup and table

    def setup(self, item: dict) -> None:
        name = item["name"]
        self.tr.tag = name

        def timed():
            fan = self.tr.call("fan.load", fan_mod.load_fan, item["path"])
            self.stage(fan, ring=True)
            return fan

        def check(fan):
            expect(fano.classify(fan).tier == fano.Tier.FULL_CLASS, "tier is not FullClass")
            census = cohomology.betti_census(fan)
            for d in range(fan.dim + 1):
                expect(cohomology.degree_dimension(fan, d) == census.get(d, 0), f"degree {d} census")
            if item.get("factors"):
                parts = [cohomology.betti_census(inputs.build(f)) for f in item["factors"]]
                expect(census == inputs.kunneth(*parts), "Betti census is not the Kunneth product")

        interval, fan = self.op(f"setup {name}", timed, check)
        if fan is None:
            return
        self.fans[name] = fan
        self.out["setup"][name] = interval
        n, m = fan.dim, fan.n_rays
        with self.untimed():
            psets = fan_mod.primitive_sets(fan)
            sh = cohomology.shelling(fan)
            ray_sum = [sum(r[t] for r in fan.rays) for t in range(n)]
            detail = {
                "basis": len(cohomology.basis_tau(fan)),
                "reducer_cols_top": comb(m + n - 1, n),
                "reducer_rows_top": n * comb(m + n - 2, n - 1)
                + sum(comb(m + n - len(p) - 1, n - len(p)) for p in psets if len(p) <= n),
                "shelling_radius": max(abs(a - b) for a, b in zip(sh.perturbation, ray_sum)),
            }
        self.out["fans"][name] = detail
        self.count("cohomology.basis", detail["basis"])
        self.count("cohomology.reducer_cols.top", detail["reducer_cols_top"])
        self.count("cohomology.reducer_rows.top", detail["reducer_rows_top"])
        self.count("cohomology.shelling_radius", detail["shelling_radius"])

    def table(self, name: str) -> None:
        fan = self.fans[name]
        self.tr.tag = name
        taus = cohomology.basis_tau(fan)
        b = len(taus)

        def timed():
            for tau in taus:
                self.tr.call("quantum.giambelli", quantum.giambelli, fan, tau)
            basis = [cohomology.basis_class(fan, i) for i in range(b)]
            return {
                (i, j): self.tr.call("quantum.table", quantum.quantum_product, fan, basis[i], basis[j])
                for i in range(b)
                for j in range(i, b)
            }

        def check(tab):
            rng = random.Random(self.rng.random())
            basis = [cohomology.basis_class(fan, i) for i in range(b)]
            for _ in range(3):
                i, j, k = (rng.randrange(b) for _ in range(3))
                left = quantum.quantum_product(fan, tab[min(i, j), max(i, j)], basis[k])
                right = quantum.quantum_product(fan, basis[i], tab[min(j, k), max(j, k)])
                expect(left == right, f"associativity on basis triple {(i, j, k)}")

        if self.op(f"table {name}", timed, check)[0] is not None:
            self.count("quantum.pair_products", b * (b + 1) // 2)

    def cli_product(self, name: str, cone, divisor: int) -> None:
        fan = self.fans[name]

        def timed():
            point = quantum.classical(fan, cohomology.stratum_class(fan, cone))
            return quantum.quantum_product(fan, point, quantum.reduce_monomial(fan, (divisor,)))

        _, qc = self.op(f"product {name}", timed)
        if qc is not None:
            self.out["products"][name] = canonical(fan, qc)

    # ------------------------------------------------------------ chains and rewrites

    def chain(self, name: str, depth: int) -> None:
        fan = self.fans[name]
        self.tr.tag = name
        c = inputs.ample_weights(fan, self.rng)
        h = cohomology.CohomologyClass()
        for i, ci in enumerate(c):
            h = h + cohomology.stratum_class(fan, (i,)).scaled(ci)
        powers = {1: quantum.classical(fan, h)}
        steps = []
        for k in range(2, depth + 1):
            prev = powers[k - 1]

            def check(p, k=k):
                expect(quantum.quantum_degrees(fan, p) == {k}, f"H^{k} has a term of another degree")

            interval, p = self.op(
                f"chain {name} H^{k}",
                lambda: self.tr.call("quantum.product", quantum.quantum_product, fan, prev, h),
                check,
            )
            if p is None:
                return
            steps.append(interval)
            powers[k] = p
        self.out["chain"][name] = steps
        last = powers[depth]
        self.count("quantum.parts", len(last.parts))
        self.count("quantum.terms", sum(len(v.coords) for v in last.parts.values()))
        rng = random.Random(self.rng.random())

        def check_powers():
            for b in (2, 3):
                a = rng.randint(1, min(depth - b, 5))
                expect(
                    quantum.quantum_product(fan, powers[a], powers[b]) == powers[a + b],
                    f"H^{a} * H^{b} != H^{a + b}",
                )
            is_pn, dims = fano.is_product_of_projective_spaces(fan)
            n = fan.dim
            if is_pn and dims == (n,) and depth > n:
                line = CurveClass((1,) * fan.n_rays)
                want = quantum.QuantumClass({line: cohomology.unit_class(fan).scaled(sum(c) ** (n + 1))})
                expect(powers[n + 1] == want, f"H^{n + 1} != q on P^{n}")

        self.op(f"chain checks {name}", check_powers)

    def rewrite(self, name: str, rounds: int) -> None:
        fan = self.fans[name]
        self.tr.tag = name
        batch = []
        for mono in inputs.monomials(fan, rounds, self.rng):
            memo_t, memo = self.op(
                f"rewrite {name} {mono}",
                lambda: self.tr.call("quantum.rewrite", quantum.reduce_monomial, fan, mono),
            )
            # One unlucky random strategy can cost 100 times the usual one,
            # so each monomial gets three and the median time counts.
            rand_ts = []
            for strategy in [random.Random(self.rng.random()) for _ in range(3)]:
                rand_t, _ = self.op(
                    f"random rewrite {name} {mono}",
                    lambda: self.tr.call("quantum.rewrite", quantum.reduce_monomial, fan, mono, strategy),
                    lambda r: expect(r == memo, "rewrite is not confluent"),
                )
                rand_ts.append(rand_t)
            self.count("quantum.rewrite_monomials")
            if memo_t is not None and None not in rand_ts:
                batch.append([len(mono), memo_t, rand_ts])
        self.out["rewrite"][name] = batch

    def census(self) -> None:
        self.tr.tag = "census"
        corpus = list(catalog.corpus().values())

        def check(found):
            expect(len(found) == len(corpus), f"census found {len(found)} classes")
            for f in found:
                expect(any(fan_mod.is_isomorphic(f, g) for g in corpus), "census class outside the corpus")

        self.op("census", lambda: self.tr.call("catalog.census", catalog.census, 2, 8), check)


# Hard effectivity classes are k * (beta_1 + beta_2) with k cycling 1 .. HARD_MAX_K.
HARD_MAX_K = 6

# Query kinds of one round of the stream; every round issues this multiset
# in a seeded order, so every seed gives the stream the same composition.
ROUND = (
    ("classify", 4),
    ("tower", 2),
    ("tree", 3),
    ("effective", 5),
    ("iso", 2),
    ("gw", 2),
    ("reject", 3),
    ("cli", 3),
)


class Stream:
    """A closed loop of queries over a pool of base fans.

    Half the queries on pool fans hit a fresh seeded GL(n,Z) image, whose
    caches start cold; the rest revisit an earlier image of the same base.
    """

    def __init__(self, job: Job, spec: dict):
        self.job = job
        self.rng = random.Random(job.rng.random())
        self.work_dir = spec["work_dir"]
        self.length = int(spec["length"])
        self.pool = [inputs.build(n) for n in spec["pool"]]
        self.names = list(spec["pool"])
        self.refused = [inputs.build("f2"), inputs.build("twisted")]
        self.images: dict[int, list] = {}
        self.kind = ""
        self.slot = 0
        self.hard_index = 0
        self.corrupt_index = 0
        self.distinct: set = set()
        self.files: dict = {}
        self.latencies: list[list[float]] = []
        self.kinds: dict[str, int] = {}
        self.base: dict[int, dict] = {}
        self.hard_pairs = {i: self._hard_pairs(f) for i, f in enumerate(self.pool)}
        self.hard_fans = [i for i, p in self.hard_pairs.items() if p]

    # base answers, computed once per pool fan, untimed
    def base_info(self, i: int) -> dict:
        info = self.base.get(i)
        if info is None:
            f = self.pool[i]
            info = {
                "tier": fano.classify(f).tier,
                "psets": fan_mod.primitive_sets(f),
                "tower": len(fano.blow_down_tower(f)),
                "betti": cohomology.betti_census(f) if f.dim <= 3 else None,
            }
            self.base[i] = info
        return info

    @staticmethod
    def _hard_pairs(f) -> list:
        pdata = fan_mod.primitive_data(f)
        out = []
        for a in range(len(pdata)):
            for b in range(a + 1, len(pdata)):
                beta = pdata[a].cls + pdata[b].cls
                negatives = tuple(i for i, x in enumerate(beta.pairings) if x < 0)
                if not fan_mod.is_cone(f, negatives):
                    out.append(beta)
        return out

    def target(self, i: int):
        """A fresh image on every other query of the current kind, else an
        earlier image: each kind meets the same share of cold fans whatever
        the seeded order, and so does every seed."""
        earlier = self.images.setdefault(i, [])
        if self.kinds[self.kind] % 2 or not earlier:
            img = inputs.gl_image(self.pool[i], self.rng)
            earlier.append(img)
            self.distinct.add(img)
            return img
        return self.rng.choice(earlier)

    def file_for(self, f) -> str:
        path = self.files.get(f)
        if path is None:
            path = os.path.join(self.work_dir, f"q{len(self.files)}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(f.to_json_dict(), handle)
            self.files[f] = path
        return path

    def run(self) -> None:
        job = self.job
        job.tr.tag = "stream" if len(self.names) > 1 else "stream-" + self.names[0]
        kinds = [k for k, n in ROUND for _ in range(n)]
        done = 0
        while done < self.length:
            order = list(kinds)
            self.rng.shuffle(order)
            for kind in order[: self.length - done]:
                self.slot += 1
                self.query(kind)
                done += 1
        job.count("fan.distinct_fans", len(self.distinct))
        job.count("query.samples", len(self.latencies))
        job.out["queries"] = self.latencies

    def pick(self, dims=None) -> int:
        choices = [i for i, f in enumerate(self.pool) if dims is None or f.dim in dims]
        return choices[self.slot % len(choices)]

    def query(self, kind: str) -> None:
        job = self.job
        self.kind = kind
        self.kinds[kind] = self.kinds.get(kind, 0) + 1
        timed, check = getattr(self, "q_" + kind)()

        def traced():
            return job.tr.call("query." + kind, timed)

        interval, _ = job.op(f"query {kind} #{self.slot}", traced, check)
        if interval is not None:
            self.latencies.append(interval)

    # ---- query kinds: each returns (timed, check)

    def q_classify(self):
        i = self.pick()
        f = self.target(i)
        info = self.base_info(i)
        want_betti = info["betti"] is not None

        def timed():
            self.job.stage(f, ring=False)
            tier = fano.classify(f).tier
            betti = self.job.tr.call("cohomology.shelling", cohomology.betti_census, f) if want_betti else None
            return tier, fan_mod.primitive_sets(f), betti

        def check(res):
            tier, psets, betti = res
            expect(tier == info["tier"], "tier differs from the base fan")
            expect(psets == info["psets"], "primitive sets differ from the base fan")
            expect(betti == info["betti"], "Betti numbers differ from the base fan")

        return timed, check

    def q_tower(self):
        i = self.pick()
        f = self.target(i)
        info = self.base_info(i)

        def timed():
            self.job.stage(f, ring=False)
            return self.job.tr.call("fano.tower", fano.blow_down_tower, f)

        def check(stages):
            expect(len(stages) == info["tower"], "tower length differs from the base fan")
            self.job.count("fano.tower_stages", len(stages))

        return timed, check

    def q_tree(self):
        i = self.pick()
        f = self.target(i)
        k = self.rng.randrange(len(self.base_info(i)["psets"]))

        def timed():
            self.job.stage(f, ring=False)
            beta = fan_mod.primitive_data(f)[k].cls
            return beta, self.job.tr.call("curves.tree", curves.tree_for_class, f, beta)

        def check(res):
            beta, trees = res
            total = CurveClass((0,) * f.n_rays)
            for tree, mult in trees:
                total = total + tree.cls.scaled(mult)
                self.job.count("curves.tree_edges", len(tree.edges))
            expect(total == beta, "tree classes do not sum to the class")

        return timed, check

    def q_effective(self):
        hard = self.kinds["effective"] % 5 == 1 and self.hard_fans
        if hard:
            i = self.hard_fans[self.hard_index % len(self.hard_fans)]
            pairs = self.hard_pairs[i]
            beta = pairs[(self.hard_index // len(self.hard_fans)) % len(pairs)]
            beta = beta.scaled(1 + self.hard_index % HARD_MAX_K)
            self.hard_index += 1
        else:
            i = self.pick()
            pdata = fan_mod.primitive_data(self.pool[i])
            beta = self.rng.choice(pdata).cls.scaled(self.rng.randint(1, 3))
        f = self.target(i)

        def timed():
            self.job.stage(f, ring=False)
            return self.job.tr.call("fan.effective", fan_mod.decompose_effective, f, beta)

        def check(dec):
            total = CurveClass((0,) * f.n_rays)
            for pd, mult in dec:
                expect(mult > 0, "nonpositive multiplicity")
                total = total + pd.cls.scaled(mult)
            expect(total == beta, "decomposition does not sum back to the class")
            negatives = tuple(j for j, x in enumerate(beta.pairings) if x < 0)
            self.job.count("fan.effective_checks")
            if not fan_mod.is_cone(f, negatives):
                self.job.count("fan.effective_hard")

        return timed, check

    def q_iso(self):
        i = self.pick()
        f = self.target(i)
        base = self.pool[i]

        def timed():
            self.job.stage(f, ring=False)
            return self.job.tr.call("fan.iso", fan_mod.is_isomorphic, f, base)

        return timed, lambda same: expect(same is True, "image is not isomorphic to its base")

    def q_gw(self):
        i = self.pick(dims={2}) if any(f.dim == 2 for f in self.pool) else self.pick()
        base = self.pool[i]
        f = self.target(i) if base.dim == 2 else base
        n = base.dim
        faces = fan_mod.faces(base)
        classes = [CurveClass((0,) * base.n_rays)] + [pd.cls for pd in fan_mod.primitive_data(base)]
        while True:
            s1, s2 = self.rng.choice(faces), self.rng.choice(faces)
            beta = self.rng.choice(classes)
            d3 = n + beta.degree - len(s1) - len(s2)
            third = [s for s in faces if len(s) == d3]
            if third:
                s3 = self.rng.choice(third)
                break

        def timed():
            self.job.stage(f, ring=True)
            strata = [cohomology.stratum_class(f, s) for s in (s1, s2, s3)]
            return self.job.tr.call("quantum.gw3", quantum.gw3, f, *strata, beta)

        def check(v):
            a, b, c = (cohomology.stratum_class(base, s) for s in (s1, s2, s3))
            if f is not base:
                expect(v == quantum.gw3(base, a, b, c, beta), "gw3 differs from the base fan")
            else:
                # the invariant is symmetric, and the cyclic order pairs a
                # different product against a different class
                expect(v == quantum.gw3(base, b, c, a, beta), "gw3 is not symmetric in its classes")

        return timed, check

    def q_reject(self):
        self.corrupt_index += 1
        if self.corrupt_index % 3 == 0:
            g = self.refused[(self.corrupt_index // 3) % 2]
            want = errors.NotFano if g.dim == 2 else errors.NotInClass
            f = inputs.gl_image(g, self.rng)
            self.distinct.add(f)

            def timed():
                try:
                    self.job.tr.call("quantum.giambelli", quantum.giambelli, f, f.max_cones[0])
                except errors.ToricError as exc:
                    return exc
                return None

            return timed, lambda exc: expect(isinstance(exc, want), f"expected {want.__name__}, got {exc!r}")
        f = self._corrupted()

        def timed():
            return self.job.tr.call("fan.validate", fan_mod.validate, f)

        return timed, lambda rep: expect(not rep.accepted, "a corrupted fan was accepted")

    def _corrupted(self):
        i = self.pick()
        kind = inputs.CORRUPTIONS[self.corrupt_index % len(inputs.CORRUPTIONS)]
        f = inputs.corrupt(self.pool[i], kind, self.rng)
        self.distinct.add(f)
        return f

    def q_cli(self):
        which = self.kinds["cli"] % 3
        if which == 0:
            i = self.pick()
            f = self.target(i)
            argv, code = ["classify", "--json", "--fan", self.file_for(f)], 0
            tier = self.base_info(i)["tier"].render()

            def check_out(out):
                expect(json.loads(out)["tier"] == tier, "CLI tier differs from the base fan")
        elif which == 1:
            self.corrupt_index += 1
            argv, code = ["validate", "--fan", self.file_for(self._corrupted())], 3
            check_out = None
        else:
            g = inputs.gl_image(self.refused[self.slot % 2], self.rng)
            self.distinct.add(g)
            argv, code = ["giambelli", "--fan", self.file_for(g), "1,3"], 4
            check_out = None

        def timed():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.job.tr.call("cli.inproc", cli.main, argv)
            return rc, out.getvalue()

        def check(res):
            rc, out = res
            expect(rc == code, f"cli {argv[0]} exited {rc}, expected {code}")
            if check_out is not None:
                check_out(out)

        return timed, check


def main() -> int:
    spec = json.loads(sys.stdin.read())
    signal.signal(signal.SIGALRM, _on_alarm)
    job = Job(spec)
    for item in spec["fans"]:
        job.setup(item)
    for item in spec["fans"]:
        if item["name"] in job.fans:
            job.table(item["name"])
    t_table = time.monotonic()
    untimed_before_table = job.untimed_s
    for item in spec["fans"]:
        name = item["name"]
        if name not in job.fans:
            continue
        if item.get("product"):
            cone, divisor = item["product"]
            job.cli_product(name, tuple(cone), divisor)
        job.chain(name, item["chain_k"])
        job.rewrite(name, item["rewrite_rounds"])
    if spec.get("census"):
        job.census()
    if spec.get("stream"):
        Stream(job, spec["stream"]).run()
    result = dict(job.out)
    result.update(
        t_start=T_START,
        t_imported=T_IMPORTED,
        t_table=t_table,
        untimed_before_table=untimed_before_table,
        attempted=job.attempted,
        failures=job.failures,
        counts=job.counts,
        spans=job.tr.spans,
        speed_samples=job.speed.samples,
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
