"""Write bench/golden/: the outputs of the intervals and groups jobs.

    python3 bench/make_golden.py

Run it from the repository root.  The files record what the CLI prints
today, and the benchmark compares every later run with them byte for byte,
so rerun this only in a change that is meant to alter those outputs.
"""

import random
import sys

import run


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    run.GOLDEN.mkdir(exist_ok=True)
    for workload in ("intervals", "groups"):
        for job in run.WORKLOADS[workload](random.Random(0), run.WORK):
            proc = run.spawn([sys.executable, "-c", run.ENTRY, *job.argv], run.WORK)
            if proc.code != job.code:
                print(f"{job.name}: exit code {proc.code}\n{proc.err}", file=sys.stderr)
                return 1
            (run.GOLDEN / f"{job.name}.out").write_text(proc.out, encoding="utf-8")
            print(f"{job.name}: {proc.wall_s:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
