"""Record one point of the BENCH trajectory: every workload, untraced and traced.

    python3 bench/record.py --seed 1 --seconds 30 --out bench/BENCH_<n>.json

Runs ``run.py`` once per workload with ``--trace 0`` and once with
``--trace 1`` and collects the full reports it writes (end-to-end and
per-command metrics, failures, stdout digests, per-layer metrics) with the
commit, the paths under src/ that differ from it, Python version and core
count. Compare two points only when they were recorded with the same seed and
seconds.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

from run import BENCH, ROOT, WORK, WORKLOAD_METRICS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    def git(*argv):
        return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout

    point = {"commit": git("rev-parse", "HEAD").strip(),
             "src_uncommitted": sorted(line[3:] for line in
                                       git("status", "--porcelain", "--", "src").splitlines()),
             "python": platform.python_version(),
             "nproc": os.cpu_count(), "seed": args.seed, "seconds": args.seconds,
             "workloads": {}}
    for workload in WORKLOAD_METRICS:
        entry = point["workloads"][workload] = {}
        for trace in (0, 1):
            subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                            "--workload", workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(trace)],
                           cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            path = os.path.join(WORK, "report-%s-trace%d.json" % (workload, trace))
            with open(path, encoding="utf-8") as handle:
                entry["trace" if trace else "untraced"] = json.load(handle)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(point, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
