#!/usr/bin/env python3
"""End-to-end benchmark of the sumfree CLI, with an optional traced run.

    python3 bench/run.py --workload intervals --seed 1 --seconds 30 --trace 0

Run it from the repository root; it uses the package under src/ directly.
The workloads, their jobs and the layer each should stress are listed in
bench/README.md.  Every job is one run of the real CLI in a fresh
interpreter, because count_sum_free is lru_cached per process and jobs
sharing one would reuse each other's walks.  Jobs run one after another from
this process (the CLI is single-threaded).

--trace 0: one untimed warm-up pass, then timed passes over the job list,
each followed by SETUP_SAMPLES_PER_PASS set-up probes, for about --seconds.
It reports wall_s (median pass: the sum of the jobs' spawn-to-exit times),
peak_rss_mb (largest job peak RSS, median over passes), setup_s (median
probe: an interpreter start that imports sumfree.cli and builds the parser)
and ok_ratio (jobs whose exit code and output are right, over jobs run).
The probes are spread over the run so that they see the same machine load
as the passes.

--trace 1: a warm-up pass, then untraced and traced passes in turn.  Traced
jobs run under bench/traced_cli.py; the per-layer metrics are medians over
the traced passes, and trace.overhead_s is the traced minus the untraced
median pass time.

Every job's exit code and output is checked, with checks that do not call
the code under test: outputs of fixed jobs are compared byte for byte with
bench/golden/ (written by bench/make_golden.py), interval sweep rows for
n <= 20 against this file's own scan, verify verdicts against sets built to
have them, and extract/random outputs by direct sum-free tests.  A job that
crashes with a traceback counts as failed; one that exits normally with a
wrong exit code or output counts as failed and makes "correct" false.

The last line of stdout is the JSON result; lines before it are a summary.
"""

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden"
TRACED_CLI = BENCH / "traced_cli.py"

# The CLI entry point, plus a hook that records the job's peak RSS as VmHWM:
# that counts only the image after exec, while wait4's ru_maxrss also counts
# the parent's memory at fork, which can be larger than the job.
ENTRY = """
import atexit, os, sys
def record_peak_rss():
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(os.environ["SUMFREE_BENCH_RSS"], "w") as out:
        out.write(kb)
atexit.register(record_peak_rss)
from sumfree.cli import main
sys.exit(main())
"""
SETUP = "from sumfree.cli import build_parser; build_parser()"
SETUP_SAMPLES_PER_PASS = 5
# Jobs take turns on the CPUs this process may use.  On a shared host each
# core's speed drifts by itself, and spreading the jobs over the cores
# averages those drifts instead of following one of them.
CPUS = sorted(os.sched_getaffinity(0))
JOB_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "ok_ratio": "ratio"}

PREDICATES = ("universe.is_sum_free", "universe.is_maximal_sum_free",
              "universe.is_two_wise_sum_free", "universe.count_schur_triples",
              "universe.is_a_free", "universe.is_difference_free")
WALKS = ("enumeration.count_maximal", "enumeration.count_by_cardinality",
         "enumeration.enumerate_maximal", "enumeration.enumerate_sum_free")
# metric -> span names; the value is the summed duration of the outermost
# spans among those names
SPAN_TOTALS = {
    "enumeration.count_sum_free.s": ("enumeration.count_sum_free",),
    "enumeration.enumerate_maximum.s": ("enumeration.enumerate_maximum",),
    "enumeration.count_two_wise.s": ("enumeration.count_two_wise",),
    "enumeration.count_sum_free_sharded.s": ("enumeration.count_sum_free_sharded",),
    "groups.index2_subgroups.s": ("groups.index2_subgroups",),
    "universe.is_sum_free.s": ("universe.is_sum_free",),
    "universe.is_maximal_sum_free.s": ("universe.is_maximal_sum_free",),
    "universe.is_two_wise_sum_free.s": ("universe.is_two_wise_sum_free",),
    "universe.count_schur_triples.s": ("universe.count_schur_triples",),
    "universe.elemset_s": ("universe.ElemSet.members", "universe.ElemSet.from_values"),
    "generate.extract_sum_free.s": ("generate.extract_sum_free",),
    "generate.random_sum_free.s": ("generate.random_sum_free",),
    "construct.s": ("construct.",),  # a trailing dot matches the whole module
}
LAYER_UNITS = dict(
    {name: "s" for name in SPAN_TOTALS},
    **{
        "enumeration.sets_counted": "count",
        "enumeration.ns_per_set": "ns",
        "enumeration.walks": "count",
        "enumeration.cache_hit_ratio": "ratio",
        "enumeration.enumerate_maximum.calls": "count",
        "groups.index_ops": "count",
        "groups.index_s": "s",
        "universe.predicate_calls": "count",
        "analysis.self_s": "s",
        "cli.self_s": "s",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "trace.spans": "count",
    },
)
# per workload, the layer metrics that must be non-zero in a traced pass
BUSY = {
    "intervals": ("enumeration.count_sum_free.s", "enumeration.sets_counted",
                  "enumeration.walks", "enumeration.count_two_wise.s",
                  "enumeration.count_sum_free_sharded.s", "cli.self_s"),
    "groups": ("enumeration.enumerate_maximum.calls", "enumeration.sets_counted",
               "groups.index_ops", "groups.index2_subgroups.s",
               "universe.predicate_calls", "universe.elemset_s", "analysis.self_s"),
    "verify-generate": ("universe.is_sum_free.s", "universe.is_maximal_sum_free.s",
                        "universe.is_two_wise_sum_free.s", "universe.count_schur_triples.s",
                        "universe.elemset_s", "groups.index_ops",
                        "generate.extract_sum_free.s", "generate.random_sum_free.s",
                        "construct.s"),
}


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


# jobs ----------------------------------------------------------------------

Check = Callable[[str], Optional[str]]  # stdout -> what is wrong with it, or None


@dataclass
class Job:
    name: str
    argv: list[str]
    code: int  # expected exit code
    check: Check


def golden(name: str) -> Check:
    path = GOLDEN / f"{name}.out"

    def check(out: str) -> Optional[str]:
        if not path.is_file():
            return f"no golden output {path.name}"
        same = out == path.read_text(encoding="utf-8")
        return None if same else f"output differs from {path.name}"

    return check


def exact(expected: str) -> Check:
    def check(out: str) -> Optional[str]:
        return None if out == expected else f"expected {expected!r}"

    return check


def both(first: Check, second: Check) -> Check:
    return lambda out: first(out) or second(out)


def interval_counts(n_max: int) -> list[int]:
    """f(n) for n = 0..n_max: sum-free subsets of [1, n], empty set included.

    Scans the sum-free subsets of [1, n_max] in increasing order of their
    elements with plain Python sets.  A new element v is larger than every
    chosen one, so it can only break sum-freeness by being a sum of two of
    them.  A set counts towards f(n) for every n >= its largest element.
    """
    by_top = [0] * (n_max + 1)

    def grow(chosen: list[int], sums: set[int]) -> None:
        for v in range((chosen[-1] if chosen else 0) + 1, n_max + 1):
            if v not in sums:
                by_top[v] += 1
                grow(chosen + [v], sums | {v + a for a in chosen} | {2 * v})

    grow([], set())
    counts, total = [], 1
    for n in range(n_max + 1):
        total += by_top[n] if n else 0
        counts.append(total)
    return counts


def sweep_rows_match(f: list[int]) -> Check:
    def check(out: str) -> Optional[str]:
        for line in out.splitlines()[1:]:
            n, count = (int(x) for x in line.split(",")[:2])
            if n < len(f) and count != f[n]:
                return f"f({n}) = {count}, independent scan gives {f[n]}"
        return None

    return check


def sum_free_ints(values: list[int]) -> bool:
    mask = 0
    for v in values:
        mask |= 1 << v
    return not any((mask << v) & mask for v in values)


def json_set(check_values: Callable[[list[int]], Optional[str]]) -> Check:
    def check(out: str) -> Optional[str]:
        try:
            got = json.loads(out)
        except ValueError:
            return "output is not JSON"
        if not isinstance(got, list) or not all(isinstance(v, int) for v in got):
            return "output is not a JSON array of integers"
        if got != sorted(set(got)):
            return "members are not distinct and ascending"
        return check_values(got)

    return check


def verify_text(universe: str, sum_free: bool, maximal: bool, two_wise: bool,
                triples: int) -> str:
    def flag(b: bool) -> str:
        return "true" if b else "false"

    return (f"universe: {universe}\nsum_free: {flag(sum_free)}\n"
            f"maximal_sum_free: {flag(maximal)}\ntwo_wise_sum_free: {flag(two_wise)}\n"
            f"schur_triples: {triples}\n")


def intervals_jobs(rng: random.Random, work: Path) -> list[Job]:
    f = interval_counts(20)
    if f[20] != 9583:  # OEIS A007865, a check on the scan itself
        raise BenchError(f"independent scan gives f(20) = {f[20]}, not 9583")
    return [
        Job("sweep-intervals-33", ["sweep-intervals", "--n-max", "33"], 0,
            both(golden("sweep-intervals-33"), sweep_rows_match(f))),
        Job("count-interval-30-maximal", ["count", "--interval", "30", "--maximal",
                                          "--by-cardinality"], 0,
            golden("count-interval-30-maximal")),
        Job("count-interval-33-shards", ["count", "--interval", "33", "--shards", "8"], 0,
            golden("count-interval-33-shards")),
        Job("count-interval-16-2wise", ["count", "--interval", "16", "--2wise"], 0,
            golden("count-interval-16-2wise")),
    ]


def groups_jobs(rng: random.Random, work: Path) -> list[Job]:
    jobs = [
        Job(f"sweep-groups-{check}", ["sweep-groups", "--max-order", "32", "--check", check],
            0, golden(f"sweep-groups-{check}"))
        for check in ("mu", "index2", "giudici2")
    ]
    for moduli in ("37", "4,4,2"):
        name = "count-group-" + moduli.replace(",", "-")
        jobs.append(Job(name, ["count", "--group", moduli], 0, golden(name)))
    return jobs


def verify_generate_jobs(rng: random.Random, work: Path) -> list[Job]:
    def write(name: str, values: list[int]) -> str:
        path = work / f"{name}.json"
        path.write_text(json.dumps(values), encoding="utf-8")
        return str(path)

    def verify(name: str, universe: list[str], values: list[int], code: int,
               text: str) -> Job:
        return Job(name, ["verify", *universe, "--set", write(name, values)], code,
                   exact(text))

    jobs = []
    # The middle third {334..666} of Z_1000 is maximal sum-free: every other
    # nonzero x is a difference (1..332, 668..999) or has 2x in it (333, 667).
    # A unit dilation is an automorphism, so the image keeps every verdict.
    unit = rng.choice([u for u in range(1, 1000) if math.gcd(u, 1000) == 1])
    jobs.append(verify("verify-third-z1000", ["--group", "1000"],
                       sorted(unit * x % 1000 for x in range(334, 667)), 0,
                       verify_text("group[1000]", True, True, True, 0)))
    # A x Z_30 in Z_30 x Z_30, A a unit dilation of the middle third {11..20}
    # of Z_30 (maximal sum-free there): (x, y) outside it is blocked by the
    # relation that blocks x in Z_30, or by (0, y) + (a, b) = (a, b + y).
    unit = rng.choice([u for u in range(1, 30) if math.gcd(u, 30) == 1])
    jobs.append(verify("verify-product-z30xz30", ["--group", "30,30"],
                       sorted(unit * a % 30 + 30 * b for a in range(11, 21) for b in range(30)),
                       0, verify_text("group[30,30]", True, True, True, 0)))
    # 300 odd numbers plus x + y for two of them: not sum-free, yet split into
    # the odd part and {x + y}, both sum-free.  The triples are counted here.
    odds = rng.sample(range(1, 2000, 2), 300)
    x, y = rng.sample([v for v in odds if v < 1000], 2)
    planted = sorted(odds + [x + y])
    members = set(planted)
    triples = sum(1 for a in planted for b in planted if a + b in members)
    jobs.append(verify("verify-planted-triple", ["--interval", "2000"], planted, 1,
                       verify_text("interval[1,2000]", False, False, True, triples)))
    # The odd numbers of [1, 2200]: sum-free, and maximal since each even
    # e = 1 + (e - 1).  is_two_wise_sum_free recurses once per member, so
    # today this job dies with RecursionError; the expected result stays.
    jobs.append(verify("verify-odds-2200", ["--interval", "2200"], list(range(1, 2201, 2)), 0,
                       verify_text("interval[1,2200]", True, True, True, 0)))

    values = rng.sample(range(1, 10 ** 6), 20000)
    inputs = set(values)

    def extracted(got: list[int]) -> Optional[str]:
        if not inputs.issuperset(got):
            return "output is not a subset of the input"
        if 3 * len(got) <= len(values):
            return f"{len(got)} members, not more than a third of {len(values)}"
        return None if sum_free_ints(got) else "output is not sum-free"

    jobs.append(Job("extract-20k", ["extract", write("extract-20k", values)], 0,
                    json_set(extracted)))

    # Fixed arguments: how long the generator runs depends on its seed, and
    # the job is there to time the generator, not to vary its input.
    seed_element = 1

    def grown(got: list[int]) -> Optional[str]:
        if len(got) != 150 or seed_element not in got or not 1 <= got[0] <= got[-1] <= 100000:
            return "wrong size, range or missing seed element"
        return None if sum_free_ints(got) else "output is not sum-free"

    jobs.append(Job("random-150", ["random", "--seed-element", str(seed_element),
                                   "--target", "150", "--range", "100000",
                                   "--seed", "0"], 0,
                    json_set(grown)))
    return jobs


WORKLOADS = {
    "intervals": intervals_jobs,
    "groups": groups_jobs,
    "verify-generate": verify_generate_jobs,
}


# running -------------------------------------------------------------------


@dataclass
class Proc:
    wall_s: float
    rss_kb: int
    code: int
    out: str
    err: str


def spawn(argv: list[str], work: Path, cpu: Optional[int] = None) -> Proc:
    """Run one child to completion, pinned to cpu if given.

    rss_kb is 0 unless the child records it.
    """
    out_path, err_path, rss_path = work / "stdout", work / "stderr", work / "peak_rss_kb"
    rss_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), SUMFREE_BENCH_RSS=str(rss_path))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})  # the child inherits it
        try:
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
        finally:
            os.sched_setaffinity(0, CPUS)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(JOB_TIMEOUT_S)
        try:
            _, status = os.waitpid(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss = int(rss_path.read_text()) if rss_path.is_file() else 0
    return Proc(wall, rss, proc.returncode,
                out_path.read_text(encoding="utf-8", errors="replace"),
                err_path.read_text(encoding="utf-8", errors="replace"))


def judge(job: Job, proc: Proc, cache: dict) -> Optional[str]:
    if "Traceback (most recent call last)" in proc.err:
        return "crash: " + proc.err.strip().splitlines()[-1]
    key = (job.name, proc.code, proc.out)
    if key not in cache:
        if proc.code != job.code:
            cache[key] = f"exit code {proc.code}, expected {job.code}"
        else:
            cache[key] = job.check(proc.out)
    return cache[key]


@dataclass
class Pass:
    wall_s: float
    rss_kb: int
    failures: list[tuple[str, str]]  # (job, reason)
    times: dict[str, float]
    traces: list[dict]


def run_pass(jobs: list[Job], work: Path, cache: dict, turn: int,
             traced: bool = False) -> Pass:
    wall, rss, failures, times, traces = 0.0, 0, [], {}, []
    for i, job in enumerate(jobs):
        cpu = CPUS[(i + turn) % len(CPUS)]
        if traced:
            trace_path = work / f"trace-{i}.json"
            trace_path.unlink(missing_ok=True)
            proc = spawn([sys.executable, str(TRACED_CLI), str(trace_path), *job.argv],
                         work, cpu)
            if not trace_path.is_file():
                raise BenchError(f"{job.name}: traced run wrote no trace\n{proc.err}")
            traces.append(dict(json.loads(trace_path.read_text()), job=i))
        else:
            proc = spawn([sys.executable, "-c", ENTRY, *job.argv], work, cpu)
        wall += proc.wall_s
        rss = max(rss, proc.rss_kb)
        times[job.name] = proc.wall_s
        reason = judge(job, proc, cache)
        if reason:
            failures.append((job.name, reason))
    return Pass(wall, rss, failures, times, traces)


# traced metrics -----------------------------------------------------------


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one traced pass, summed over its jobs."""
    m = dict.fromkeys(LAYER_UNITS, 0.0)
    miss_ns = hits = lookups = 0
    for t in traces:
        spans = t["spans"]
        names = [s[0] for s in spans]
        parents = [s[3] for s in spans]
        dur = [(s[2] - s[1]) / 1e9 for s in spans]
        own = list(dur)
        for i, p in enumerate(parents):
            if p >= 0:
                own[p] -= dur[i]
        for metric, keys in SPAN_TOTALS.items():
            hits_metric = [any(name == k or k.endswith(".") and name.startswith(k)
                               for k in keys) for name in names]
            for i, hit in enumerate(hits_metric):
                if hit:
                    p = parents[i]
                    while p >= 0 and not hits_metric[p]:
                        p = parents[p]
                    if p < 0:
                        m[metric] += dur[i]
        for i, name in enumerate(names):
            layer = name.split(".", 1)[0]
            if layer in ("analysis", "cli"):
                m[f"{layer}.self_s"] += own[i]
            if name in PREDICATES:
                m["universe.predicate_calls"] += 1
            elif name in WALKS:
                m["enumeration.walks"] += 1
            elif name == "enumeration.enumerate_maximum":
                m["enumeration.enumerate_maximum.calls"] += 1
        m["trace.spans"] += len(spans)
        m["groups.index_ops"] += t["index_ops"]
        m["groups.index_s"] += t["index_ns"] / 1e9
        m["enumeration.sets_counted"] += t["sets_counted"]
        m["enumeration.walks"] += t["count_misses"]
        miss_ns += t["count_miss_ns"]
        hits += t["cache_hits"]
        lookups += t["cache_hits"] + t["cache_misses"]
    if m["enumeration.sets_counted"]:
        m["enumeration.ns_per_set"] = miss_ns / m["enumeration.sets_counted"]
    if lookups:
        m["enumeration.cache_hit_ratio"] = hits / lookups
    return m


# measuring -----------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool,
            jobs: Optional[list[Job]] = None) -> dict:
    if not (SRC / "sumfree" / "cli.py").is_file():
        raise BenchError(f"no sumfree package under {SRC}")
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        return _measure(workload, seed, seconds, trace, jobs, work)
    finally:
        shutil.rmtree(work)


def _measure(workload: str, seed: int, seconds: float, trace: bool,
             jobs: Optional[list[Job]], work: Path) -> dict:
    rng = random.Random(seed)
    if jobs is None:
        jobs = WORKLOADS[workload](rng, work)
        rng.shuffle(jobs)  # the seed also fixes the job order
    cache: dict = {}
    run_pass(jobs, work, cache, 0)  # warm-up: compiles bytecode, fills the page cache

    plain: list[Pass] = []
    traced: list[Pass] = []
    setups: list[float] = []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(jobs, work, cache, len(plain)))
        if trace:
            traced.append(run_pass(jobs, work, cache, len(traced), traced=True))
        else:
            setups += [spawn([sys.executable, "-c", SETUP], work, CPUS[k % len(CPUS)]).wall_s
                       for k in range(SETUP_SAMPLES_PER_PASS)]
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) / 2 >= seconds:  # stop nearest the deadline
            break

    passes = plain + traced
    attempted = len(jobs) * len(passes)
    failures = [f for p in passes for f in p.failures]
    wrong = any(not reason.startswith("crash:") for _, reason in failures)
    summary = {
        "workload": workload, "seed": seed, "python": platform.python_version(),
        "nproc": os.cpu_count(), "pass_s": [round(p.wall_s, 4) for p in plain],
        "traced_pass_s": [round(p.wall_s, 4) for p in traced],
        "job_s": {j.name: [round(p.times[j.name], 4) for p in plain] for j in jobs},
        "fail_ratio": len(failures) / attempted,
        "failures": sorted(set(f"{job}: {reason}" for job, reason in failures)),
    }
    wall = statistics.median(p.wall_s for p in plain)
    if trace:
        per_pass = [layer_metrics(p.traces) for p in traced]
        values = {k: statistics.median(pm[k] for pm in per_pass) for k in LAYER_UNITS}
        values["trace.wall_s"] = statistics.median(p.wall_s for p in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - wall
        idle = [k for k in BUSY.get(workload, ()) if not values[k]]
        if idle:
            raise BenchError(f"layers meant to be busy on {workload} recorded nothing: {idle}")
        units = LAYER_UNITS
        (WORK / f"spans-{workload}.json").write_text(json.dumps(traced[-1].traces))
    else:
        values = {
            "wall_s": wall,
            "peak_rss_mb": statistics.median(p.rss_kb for p in plain) / 1024,
            "setup_s": statistics.median(setups),
            "ok_ratio": 1 - len(failures) / attempted,
        }
        units = END_TO_END_UNITS
    return {
        "summary": summary,
        "result": {
            "correct": not wrong,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report["summary"]))
    for name, metric in report["result"]["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
