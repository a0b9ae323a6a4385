"""Benchmark client for toricqh: one workload, one seed, one result line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload cold_ladder --seed 1 --seconds 20 --trace 0

Each pass runs the workload's benchmark processes one at a time
(`perfbench/worker.py`, a fresh interpreter each) and then its fresh
`toricqh` command-line processes.  Passes repeat until `--seconds` have
passed, at least MIN_PASSES times; every time is the median over passes,
each measured interval brought to reference speed by the reference samples
taken near it (`speed.Speed`).
With `--trace 1` every pass runs each worker job untraced and traced, and
the last line carries the per-layer metrics instead of the end-to-end ones.  See
perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import speed

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")

# One cap for every operation and every process, on every commit.
CAP_S = 45.0
# After the first pass, no pass starts that the previous pass's length says
# would run past ABORT_S, and no process starts after it: a pass cut there
# is dropped, not counted.  The first process that hits the cap ends the
# run, so a run ends within 180 s.
ABORT_S = 120.0
# Untraced passes per run, at least: a median over two passes already held
# every spread within its bound, and a cold_ladder pass takes about 24 s.
MIN_PASSES = 2
# Runs of each fresh CLI call per pass; the median counts.  The calls of
# quantum_powers and fan_zoo take under a second each, too little work for
# one run to be steady.
CLI_REPEATS = {"cold_ladder": 1, "quantum_powers": 3, "fan_zoo": 3}

LADDER = ("p4", "p2xp2", "bl3xp1", "p1x4", "p5")
POWERS = (("bl3p2", 11), ("bl3xp1", 8), ("p1x3", 24))
POOL = ("p2", "p1xp1", "bl1p2", "bl2p2", "bl3p2", "p3", "p1x3", "p2xp1", "bl1xp1", "bl2xp1")

WORKLOADS = ("cold_ladder", "quantum_powers", "fan_zoo")

# span name -> per-layer metric
LAYERS = {
    "fan.load": "fan.load_ms",
    "fan.validate": "fan.validate_ms",
    "fan.primitive": "fan.primitive_ms",
    "fan.iso": "fan.iso_ms",
    "fan.effective": "fan.effective_ms",
    "fano.classify": "fano.classify_ms",
    "fano.tower": "fano.tower_ms",
    "cohomology.shelling": "cohomology.shelling_ms",
    "cohomology.ring_lower": "cohomology.ring_ms.lower",
    "cohomology.ring_top": "cohomology.ring_ms.top",
    "quantum.giambelli": "quantum.giambelli_ms",
    "quantum.table": "quantum.table_ms",
    "quantum.product": "quantum.product_ms",
    "quantum.rewrite": "quantum.rewrite_ms",
    "quantum.gw3": "quantum.gw3_ms",
    "curves.tree": "curves.tree_ms",
    "catalog.census": "catalog.census_ms",
    "cli.inproc": "cli.inproc_ms",
}

COUNTS = (
    "cohomology.basis",
    "cohomology.reducer_cols.top",
    "cohomology.reducer_rows.top",
    "cohomology.shelling_radius",
    "quantum.pair_products",
    "quantum.parts",
    "quantum.terms",
    "quantum.rewrite_monomials",
    "fan.effective_checks",
    "fan.effective_hard",
    "fan.distinct_fans",
    "fano.tower_stages",
    "curves.tree_edges",
    "query.samples",
)

END_TO_END = (
    ("setup_s", "s"),
    ("table_s", "s"),
    ("cli_s", "s"),
    ("chain_s", "s"),
    ("rewrite_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        tag = f"{workload}-s{seed}-t{int(trace)}"
        self.results_dir = os.path.join(BENCH, "results")
        self.work_dir = os.path.join(self.results_dir, f"work-{tag}-{os.getpid()}")
        self.tag = tag
        self.env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + BENCH, PYTHONHASHSEED="0")
        self.attempted = 0
        self.failures: list[str] = []
        self.passes: list[dict] = []
        self.spans: list[dict] = []
        self.t0 = time.monotonic()
        # stopped: a process hit the cap; aborted: ABORT_S cut a later pass
        self.stopped = False
        self.aborted = False
        self.speed_samples: list[list[float]] = []

    # ------------------------------------------------------------ inputs

    def write_fan(self, name: str, fan) -> str:
        path = os.path.join(self.work_dir, name + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(fan.to_json_dict(), handle)
        return path

    def fan_item(self, name: str, chain_k: int, rewrite_rounds: int) -> dict:
        fan = inputs.build(name)
        cone = self.rng.choice(fan.max_cones)
        divisor = self.rng.randrange(fan.n_rays)
        return {
            "name": name,
            "path": self.write_fan(name, fan),
            "factors": list(inputs.factors(name)),
            "chain_k": chain_k,
            "rewrite_rounds": rewrite_rounds,
            "product": [list(cone), divisor],
        }

    def plan(self, index: int) -> tuple[list[dict], list[tuple[list[str], int, str]]]:
        """The worker jobs and the fresh CLI calls of the index-th pass.

        Every pass draws fresh inputs from (workload, seed, index), so the
        median over passes is a median over independent input batches; the
        heavy-tailed costs (random-strategy rewrites, hard effectivity
        classes) would otherwise make one seed's batch decide the result.
        A CLI call is (argv, expected exit code, fan whose in-process
        product its --json output must equal, or "")."""
        self.rng = random.Random(f"{self.workload}:{self.seed}:{index}")
        jobs: list[dict] = []
        clis: list[tuple[list[str], int, str]] = []

        def job(items, stream_pool, length, census):
            return {
                "seed": self.rng.randrange(1 << 30),
                "cap_s": CAP_S,
                "fans": items,
                "census": census,
                "stream": {"pool": list(stream_pool), "length": length, "work_dir": self.work_dir},
            }

        def multiply(item):
            cone, divisor = item["product"]
            point = "[" + ",".join(str(i + 1) for i in cone) + "]"
            argv = ["multiply", "--json", "--fan", item["path"], point, f"D{divisor + 1}"]
            return argv, 0, item["name"]

        if self.workload == "cold_ladder":
            for k, name in enumerate(LADDER):
                n = inputs.build(name).dim
                item = self.fan_item(name, n + 3, 4)
                jobs.append(job([item], [name], 192, census=k == 0))
                clis.append(multiply(item))
        elif self.workload == "quantum_powers":
            for k, (name, depth) in enumerate(POWERS):
                item = self.fan_item(name, depth, 20)
                jobs.append(job([item], [name], 144, census=k == 0))
                clis.append(multiply(item))
        else:
            items = [self.fan_item(name, inputs.build(name).dim + 4, 4) for name in POOL]
            jobs.append(job(items, POOL, 2000, census=True))
            for item in items:
                if item["name"] in ("bl3p2", "bl2xp1"):
                    clis.append(multiply(item))
            f2 = self.write_fan("f2", inputs.build("f2"))
            twisted = self.write_fan("twisted", inputs.build("twisted"))
            broken = inputs.corrupt(inputs.build(self.rng.choice(POOL)), "drop_cone", self.rng)
            clis.append((["giambelli", "--fan", f2, "1,3"], 4, ""))
            clis.append((["multiply", "--fan", twisted, "D1", "D2"], 4, ""))
            clis.append((["validate", "--fan", self.write_fan("broken", broken)], 3, ""))
            clis.append((["tower", "--json", "--fan", items[4]["path"]], 0, ""))
        return jobs, clis

    # ------------------------------------------------------------ processes

    def spawn(self, argv: list[str], stdin: str = ""):
        """Run one process under the cap, with a speed sample just before and
        just after it; returns ([start, end], completed), completed None when
        the process hit the cap or was never started (then end == start)."""
        self.speed_samples.append(speed.sample())
        start = time.monotonic()
        if not self.stopped and self.passes and start - self.t0 >= ABORT_S:
            self.aborted = True
        if self.stopped or self.aborted:
            return [start, start], None
        try:
            done = subprocess.run(
                argv, input=stdin, capture_output=True, text=True, timeout=CAP_S, env=self.env, cwd=ROOT
            )
        except subprocess.TimeoutExpired:
            self.stopped = True
            done = None
        interval = [start, time.monotonic()]
        self.speed_samples.append(speed.sample())
        return interval, done

    def run_job(self, spec: dict, traced: bool, record: dict) -> None:
        spec = dict(spec, trace=traced)
        (start, end), done = self.spawn([sys.executable, os.path.join(BENCH, "worker.py")], json.dumps(spec))
        wall = end - start
        if done is None or done.returncode != 0 or not done.stdout.strip():
            self.attempted += 1
            if done is None:
                why = f"did not finish within {CAP_S:g} s" if wall else "not run: an earlier process hit the time cap"
            else:
                why = f"exit {done.returncode}: {done.stderr.strip()[-400:]}"
            self.failures.append(f"worker {[i['name'] for i in spec['fans']]}: {why}")
            return
        out = json.loads(done.stdout.strip().splitlines()[-1])
        self.attempted += out["attempted"]
        self.failures.extend(out["failures"])
        self.speed_samples.extend(out["speed_samples"])
        record["wall_s"] += wall
        record["setup"].extend(out["setup"].values())
        record["table"].append([start, out["t_table"], out["untimed_before_table"], list(out["setup"].values())])
        for steps in out["chain"].values():
            record["chain"].extend(steps)
        record["rewrite"].extend(out["rewrite"].values())
        record["queries"].extend(out.get("queries", []))
        record["products"].update(out["products"])
        record["fans"].update(out["fans"])
        record["per_fan"].append(
            {
                "fans": [i["name"] for i in spec["fans"]],
                "setup_s": {k: b - a for k, (a, b) in out["setup"].items()},
                "table_s": out["t_table"] - start - out["untimed_before_table"],
                "import_s": out["t_imported"] - out["t_start"],
                "chain_s": {k: sum(b - a for a, b in v) for k, v in out["chain"].items()},
                "rewrite_s": {k: rewrite_time(v, raw) for k, v in out["rewrite"].items()},
            }
        )
        for key, value in out["counts"].items():
            record["counts"][key] = record["counts"].get(key, 0) + value
        if traced:
            # a span's operation is its outermost ancestor (parents come first)
            op: dict[int, int] = {}
            for s in out["spans"]:
                op[s[0]] = s[0] if s[1] < 0 else op[s[1]]
                record["spans"].append(
                    {"id": s[0], "parent": s[1], "op": op[s[0]], "name": s[2], "start": s[3], "end": s[4],
                     "workload": self.workload, "fan": s[5], "detail": s[6], "process": len(record["per_fan"]) - 1}
                )

    def run_cli(self, argv: list[str], code: int, product_of: str, record: dict) -> list[float]:
        """One fresh CLI process, checked; returns its [start, end]."""
        self.attempted += 1
        interval, done = self.spawn([sys.executable, "-m", "toricqh.cli"] + argv)
        label = " ".join(argv[:1] + [os.path.basename(a) for a in argv[1:]])
        if done is None:
            self.failures.append(
                f"cli {label}: did not finish within {CAP_S:g} s"
                if interval[1] > interval[0]
                else f"cli {label}: not run: an earlier process hit the time cap"
            )
        elif done.returncode != code:
            self.failures.append(f"cli {label}: exit {done.returncode}, expected {code}")
        elif product_of:
            got = sorted(
                [item["q"], sorted([v["tau"], v["coeff"]] for v in item["value"])]
                for item in json.loads(done.stdout)["product"]
            )
            if got != record["products"].get(product_of):
                self.failures.append(f"cli {label}: --json product differs from the in-process product")
        return interval

    @staticmethod
    def new_record(traced: bool) -> dict:
        """One pass.  Times are kept as [start, end] intervals of
        time.monotonic() and scaled when the run's samples are all in."""
        return {
            "traced": traced, "wall_s": 0.0, "plain_wall_s": 0.0, "setup": [], "table": [], "chain": [],
            "rewrite": [], "queries": [], "cli": [], "import": None, "products": {}, "fans": {},
            "per_fan": [], "counts": {}, "spans": [],
        }

    def one_pass(self, jobs, clis, traced: bool) -> dict:
        """Run every job, then every CLI call.  A traced pass runs each job
        twice, untraced and traced, in alternating order, so that the two
        walls meet the same machine state and give the tracing overhead."""
        record = self.new_record(traced)
        for i, spec in enumerate(jobs):
            if traced:
                plain = self.new_record(False)
                runs = [(plain, False), (record, True)]
                for target, with_spans in runs if i % 2 == 0 else runs[::-1]:
                    self.run_job(spec, with_spans, target)
                record["plain_wall_s"] += plain["wall_s"]
            else:
                self.run_job(spec, False, record)
        for argv, code, product_of in clis:
            record["cli"].append([self.run_cli(argv, code, product_of, record) for _ in range(CLI_REPEATS[self.workload])])
        self.attempted += 1
        interval, done = self.spawn([sys.executable, "-c", "import toricqh"])
        if done is None or done.returncode != 0:
            self.failures.append("fresh import of toricqh failed")
        else:
            record["import"] = interval
        return record

    # ------------------------------------------------------------ the run

    def execute(self) -> dict:
        os.makedirs(self.work_dir, exist_ok=True)
        try:
            self.t0 = time.monotonic()
            last_s = 0.0
            while not self.stopped:
                k = len(self.passes)
                begin = time.monotonic()
                elapsed = begin - self.t0
                if k >= (1 if self.trace else MIN_PASSES) and elapsed >= self.seconds:
                    break
                if k and elapsed + last_s > ABORT_S:
                    break
                jobs, clis = self.plan(k)
                attempted, failed = self.attempted, len(self.failures)
                record = self.one_pass(jobs, clis, self.trace)
                if self.aborted:
                    # only slowness cut this pass: drop it, with its operations
                    self.attempted = attempted
                    del self.failures[failed:]
                    break
                self.passes.append(record)
                last_s = time.monotonic() - begin
        finally:
            shutil.rmtree(self.work_dir, ignore_errors=True)
        return self.report()

    def report(self) -> dict:
        plain = [p for p in self.passes if not p["traced"]]
        traced = [p for p in self.passes if p["traced"]]
        n_queries = len(plain[0]["queries"]) if plain else 0
        tail_p = tail_percentile(n_queries)
        speeds = speed.Speed(self.speed_samples)
        scale = speeds.mean
        measured = e2e_metrics(plain, None, tail_p)
        e2e = e2e_metrics(plain, speeds, tail_p)
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        layers: dict[str, float | None] = {}
        per_fan_layers: dict[str, float | None] = {}
        layer_shares: dict[str, float | None] = {}
        if traced:
            per_pass = [self_times(p["spans"]) for p in traced]
            for span_name, metric in LAYERS.items():
                layers[metric] = median((t.get(span_name, 0.0) for t in per_pass), 1000 * scale)
            fan_pass = [self_times(p["spans"], per_fan_key) for p in traced]
            per_fan_layers = {
                k: median((t.get(k, 0.0) for t in fan_pass), 1000 * scale) for k in sorted(set().union(*fan_pass))
            }
            layers["cli.cold_ms"] = median((duration(c, speeds.at) for p in traced for call in p["cli"] for c in call), 1000)
            layers["cli.import_ms"] = median((p["import"][1] - p["import"][0] for p in traced if p["import"]), 1000 * scale)
            layers["trace.overhead_ms"] = median((p["wall_s"] - p["plain_wall_s"] for p in traced), 1000 * scale)
            pass_shares = [shares(p, t) for p, t in zip(traced, per_pass)]
            layer_shares = {k: median(s[k] for s in pass_shares) for k in pass_shares[0]}
            for p in traced:
                self.spans.extend(p["spans"])
        for key in COUNTS:
            layers[key] = self.passes[0]["counts"].get(key, 0)
        return {
            "e2e": e2e,
            "measured": measured,
            "speed_scale": scale,
            "speed_samples": len(self.speed_samples),
            "layers": layers,
            "tail_percentile": tail_p,
            "query_samples": n_queries,
            "passes": len(self.passes),
            "per_fan": self.passes[0]["per_fan"],
            "per_fan_layers_ms": per_fan_layers,
            "layer_shares": layer_shares,
            "fans": self.passes[0]["fans"],
            "pass_values": [
                dict(e2e_metrics([p], speeds, tail_p), traced=p["traced"], wall_s=p["wall_s"], plain_wall_s=p["plain_wall_s"])
                for p in self.passes
            ],
        }


def raw(t0: float, t1: float) -> float:
    """The speed factor of as-measured times."""
    return 1.0


def rewrite_time(batch: list, factor) -> float:
    """A rewrite batch [degree, memoized [t0, t1], random [[t0, t1], ...]]:
    a monomial's time is its memoized rewrite plus the median of its random
    ones.  Within one degree the cost is heavy-tailed (a few monomials take
    most of the time), so the batch is timed as count x median per degree."""
    by_degree: dict[int, list[float]] = {}
    for degree, memo, rand in batch:
        t = duration(memo, factor) + statistics.median(duration(r, factor) for r in rand)
        by_degree.setdefault(degree, []).append(t)
    return sum(len(ts) * statistics.median(ts) for ts in by_degree.values())


def table_time(start: float, end: float, untimed: float, setups: list, factor) -> float:
    """A worker's spawn -> table time, less its untimed benchmark code: the
    set-up intervals scaled as in setup_s, the rest by the whole interval's
    samples, so that table_s never reads below setup_s."""
    rest = end - start - untimed - sum(b - a for a, b in setups)
    return rest * factor(start, end) + sum(duration(s, factor) for s in setups)


def duration(interval: list[float], factor) -> float:
    t0, t1 = interval
    return (t1 - t0) * factor(t0, t1)


def e2e_metrics(passes: list[dict], speeds: speed.Speed | None, tail_p: float) -> dict:
    """The end-to-end times, each the median over the passes; as measured
    when speeds is None.  Every interval, a fresh CLI process's too, is
    scaled by the samples near it."""
    factor = speeds.at if speeds else raw
    latencies = [[duration(q, factor) for q in p["queries"]] for p in passes if p["queries"]]
    return {
        "setup_s": median(sum(duration(s, factor) for s in p["setup"]) for p in passes),
        "table_s": median(sum(table_time(*t, factor) for t in p["table"]) for p in passes),
        "cli_s": median(
            sum(statistics.median(duration(c, factor) for c in call) for call in p["cli"]) for p in passes if p["cli"]
        ),
        "chain_s": median(sum(duration(s, factor) for s in p["chain"]) for p in passes),
        "rewrite_s": median(sum(rewrite_time(b, factor) for b in p["rewrite"]) for p in passes),
        "queries_per_s": median(len(q) / sum(q) for q in latencies),
        "query_p50_ms": median((percentile(q, 50) for q in latencies), 1000),
        "query_tail_ms": median((percentile(q, tail_p) for q in latencies), 1000),
    }


def median(values, factor: float = 1.0):
    """Median of the values times factor, or None when there are none."""
    values = list(values)
    return factor * statistics.median(values) if values else None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_percentile(n: int) -> float:
    """The highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n - math.ceil(p / 100 * n) >= 10:
            return p
    return 50.0


def self_times(spans: list[dict], key=lambda s: s["name"]) -> dict[str, float]:
    """Per key (by default the span name): the summed duration minus the
    time child spans cover."""
    child_time: dict[tuple[int, int], float] = {}
    for s in spans:
        if s["parent"] >= 0:
            parent = (s["process"], s["parent"])
            child_time[parent] = child_time.get(parent, 0.0) + s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - child_time.get((s["process"], s["id"]), 0.0)
        out[key(s)] = out.get(key(s), 0.0) + own
    return out


def shares(p: dict, self_time: dict[str, float]) -> dict[str, float]:
    """Each layer's share of a traced pass's process time: the traced
    workers' wall time plus every fresh CLI and import process.  `cli
    processes` is the fresh processes whole; `benchmark` is the rest
    (interpreter start, imports, checks, reference samples, query set-up)."""
    fresh = sum(b - a for call in p["cli"] for a, b in call)
    if p["import"]:
        fresh += p["import"][1] - p["import"][0]
    total = p["wall_s"] + fresh
    out: dict[str, float] = {}
    for name, t in self_time.items():
        module = name.split(".")[0]
        if module != "query":
            out[module] = out.get(module, 0.0) + t
    out["cli processes"] = fresh
    out["benchmark"] = total - sum(out.values())
    return {k: v / total for k, v in sorted(out.items())}


def per_fan_key(span: dict) -> str:
    """Metric name, degree and fan, as in cohomology.ring_ms.top.d5.p5."""
    detail = "." + span["detail"] if span["detail"] else ""
    return f"{LAYERS.get(span['name'], span['name'])}{detail}.{span['fan']}"


def pin_to_one_cpu() -> int | None:
    """Pin this process, and so every process it starts, to the lowest CPU
    it may use; returns that CPU, or None where pinning is not possible.

    A fresh CLI process is timed by the client, and the client's reference
    samples around it measure the CPU that the client runs on.  Unpinned,
    on the shared 2-vCPU machine the benchmark was tuned on, the two often
    ran on different CPUs, and scaling by the samples around it widened the
    spread (interquartile range over median) of a 0.7 s call's times from
    0.23 to 0.30 over 420 runs.  Pinned, it narrowed it from 0.31 to 0.17
    over 120 runs, and from 0.34 to 0.08 for a 0.1 s call."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def environment() -> dict:
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, cwd=ROOT
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "toricqh", "__init__.py")):
        print(f"error: no toricqh sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH]
    global inputs
    import inputs  # noqa: F401  (needs the package on the path)

    env = dict(environment(), pinned_cpu=pin_to_one_cpu())
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    rep = run.execute()

    print(
        f"env: commit {env['commit']} src {env['src_sha256'][:12]} python {env['python']} nproc {env['nproc']}"
        f" pinned to CPU {env['pinned_cpu']}"
    )
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {rep['passes']} passes")
    for row in rep["per_fan"]:
        print("  " + json.dumps(row, sort_keys=True))
    for name, detail in rep["fans"].items():
        print(f"  fan {name}: {json.dumps(detail, sort_keys=True)}")
    for name, value in rep["per_fan_layers_ms"].items():
        print(f"  per fan: {name} = {value} ms")
    if not args.trace:
        for name, unit in END_TO_END:
            print(f"  {name} = {rep['e2e'][name]} {unit}")
        print(f"  query tail = p{rep['tail_percentile']:g} of {rep['query_samples']} queries per pass")
    print(f"  mean speed scale = {rep['speed_scale']} from {rep['speed_samples']} reference samples")
    if not args.trace:
        print("  as measured:")
        for name, value in rep["measured"].items():
            print(f"    {name} = {value}")
    for name, value in rep["layers"].items():
        print(f"  {name} = {value}")
    for name, value in rep["layer_shares"].items():
        print(f"  share of pass time: {name} = {value:.3f}")
    print(f"  fail_ratio = {len(run.failures)}/{run.attempted}")
    for msg in run.failures[:20]:
        print(f"  FAILED: {msg}")

    if args.trace:
        chosen = {k: {"value": v, "unit": "count" if k in COUNTS else "ms"} for k, v in rep["layers"].items()}
    else:
        chosen = {name: {"value": rep["e2e"][name], "unit": unit} for name, unit in END_TO_END}
    correct = not run.failures and all(v["value"] is not None for v in chosen.values())
    record = {
        "env": env,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": run.attempted,
        "failures": run.failures,
        **rep,
    }
    os.makedirs(run.results_dir, exist_ok=True)
    with open(os.path.join(run.results_dir, run.tag + ".json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if args.trace:
        with open(os.path.join(run.results_dir, run.tag + "-spans.json"), "w", encoding="utf-8") as handle:
            json.dump(run.spans, handle)
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": len(run.failures), "metrics": chosen}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
