"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Run it from the repository root (about two minutes).  One short pass per
workload, untraced and traced, must emit every metric BENCHMARK.json names,
with its unit.  Then a planted wrong output, a job run with other arguments
than the ones its expected output belongs to, must raise the fail ratio and
clear "correct".
"""

import json
import random
import sys

import run


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            report = run.measure(workload, seed=1, seconds=0, trace=trace)
            result = report["result"]
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            label = f"{workload} trace={int(trace)}"
            if emitted != wanted[trace]:
                problems.append(f"{label}: metrics {emitted} differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{label}: wrong outputs {report['summary']['failures']}")
            print(f"{label}: {len(emitted)} metrics, "
                  f"failures {report['summary']['failures']}")

    jobs = run.intervals_jobs(random.Random(1), run.WORK)
    good = next(j for j in jobs if j.name == "count-interval-16-2wise")
    planted = run.Job(good.name + "-planted", ["count", "--interval", "15", "--2wise"],
                      good.code, good.check)
    report = run.measure("intervals", seed=1, seconds=0, trace=False, jobs=[good, planted])
    result = report["result"]
    ok_ratio = result["metrics"]["ok_ratio"]["value"]
    if result["correct"] or report["summary"]["fail_ratio"] != 0.5 or ok_ratio != 0.5:
        problems.append(f"planted wrong output not caught: {report}")
    print(f"planted wrong output: correct={result['correct']} "
          f"fail_ratio={report['summary']['fail_ratio']}")

    for problem in problems:
        print("FAIL", problem, file=sys.stderr)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
