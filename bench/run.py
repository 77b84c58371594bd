"""The skewrel benchmark: seeded inputs, run through the public CLI, checked.

    python3 bench/run.py --workload structure|products|selftest \
        --seed N --seconds S --trace 0|1

Load model: a closed loop with one client. Each command runs in a fresh
interpreter (``child.py``), one at a time, as a CLI user would, so no module
cache carries over between commands. The timed span is ``cli.main(argv)``
inside the child, from call to return with stdout captured: parse, validate,
compute and serialize. It is timed in the child's CPU seconds, which leave
out the time other machines' work takes the core away. Interpreter start
plus ``import skewrel.cli`` is timed apart, in wall seconds, as ``setup_s``
(about 0.1 s).

A pass runs every command of the workload once. Passes repeat until
``--seconds`` have gone by (at least three untraced passes). A command's time
is the upper quartile of its samples over the passes (see ``command_time``);
a command metric such as ``mul_rel_s`` sums those over the workload's
documents, and ``pass_s`` sums the command metrics.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones (see ``tracing.py``), with ``trace.overhead_frac`` comparing the two.
Every output is checked against the generators' invariants, untimed; a
command that exits non-zero or fails its check counts as failed. The last
line of stdout is the result object; the lines before it are the full
report, which is also written to .bench_work/report-<workload>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import partial

import check
import gen
import tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(BENCH, "child.py")
CHILD_TIMEOUT_S = 120

# Sizes: each command takes about 0.3-2 s at the baseline and keeps the known
# superlinear paths visible (validate per-point sets, the O(|R|^2) equivalence
# check, ideals re-verifying per ideal, witness scans in Gamma^-1).
CYC_STRUCTURE = (8, 24)                 # 192 points, |R| = 1536, 24 classes
S3_COPIES = 48                          # whole copies: 288 points, |R| = 1728, 48 classes
S3_SIZES = (6, 5, 5, 4, 3, 3, 2, 1)     # 29 points, |R| = 125, 8 classes, 256 ideals
CHAIN_M = 24                            # one class, |R| = 576, 47 terms, over Q
CYC_PRODUCTS = (6, 32, 7)               # 192 points, |R| = 1152, 6 terms, GF(7)
SELFTEST_RUNS, SELFTEST_TRIALS = 4, 50   # the seed moves this work by ~2%; one 50-trial run, ~6%

WORKLOAD_METRICS = {
    "structure": ["validate_s", "relation_s", "ideals_s"],
    "products": ["mul_skew_s", "mul_rel_s", "gamma_fwd_s", "gamma_inv_s"],
    "selftest": ["selftest_s"],
}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    _SPEC = json.load(_handle)
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}
PER_LAYER_NAMES = [m["name"] for m in _SPEC["per_layer"]]

# How each per-layer metric of BENCHMARK.json is derived from the traced passes.
# "self:" is a span's self time, "total:" its whole duration, "calls:" its
# call count, "count:" a counter, "max:" the largest size seen, "ratio:" one
# counter over another. trace.overhead_frac is computed apart.
RULES = {
    "cli.main_s": "total:cli.main",
    "cli.self_s": "self:cli.main",
    "documents.load_action_s": "self:documents.load_action",
    "documents.parse_elements_s": "self:documents.parse_elements",
    "documents.serialize_s": "self:documents.serialize",
    "documents.output_bytes": "count:documents.output_bytes",
    "actions.validate_s": "self:actions.validate",
    "actions.check_elements": "count:actions.check_elements",
    "actions.check_free_s": "self:actions.check_free",
    "actions.build_relation_s": "self:actions.build_relation",
    "actions.verify_equivalence_s": "self:actions.verify_equivalence",
    "actions.verify_equivalence_calls": "calls:actions.verify_equivalence",
    "actions.enumerate_invariant_subsets_s": "self:actions.enumerate_invariant_subsets",
    "actions.points": "max:actions.points",
    "actions.relation_pairs": "max:actions.relation_pairs",
    "actions.classes": "max:actions.classes",
    "groups.mul_calls": "count:groups.mul_calls",
    "groups.inverse_calls": "count:groups.inverse_calls",
    "fields.scalar_ops": "count:fields.scalar_ops",
    "funalg.apply_s": "self:funalg.apply",
    "funalg.elements_built": "count:funalg.elements_built",
    "funalg.points_indexed": "count:funalg.points_indexed",
    "skew.mul_s": "self:skew.mul",
    "skew.mul_calls": "calls:skew.mul",
    "skew.term_pairs": "count:skew.term_pairs",
    "relalg.conv_s": "self:relalg.conv",
    "relalg.conv_calls": "calls:relalg.conv",
    "relalg.conv_pairs_scanned": "count:relalg.conv_pairs_scanned",
    "relalg.gamma_s": "self:relalg.gamma",
    "relalg.gamma_inv_s": "self:relalg.gamma_inv",
    "relalg.oracle_s": "self:relalg.oracle",
    "relalg.oracle_calls": "calls:relalg.oracle",
    "relalg.rowspace_adds": "count:relalg.rowspace_adds",
    "relalg.rowspace_grow_ratio": "ratio:relalg.rowspace_grew/relalg.rowspace_adds",
    "selftest.ideals_s": "total:selftest.ideals",
    "selftest.gamma_s": "total:selftest.gamma",
    "selftest.associativity_s": "total:selftest.associativity",
}


@dataclass
class Command:
    metric: str        # the end-to-end metric this command's time counts toward
    document: str      # name of the generated input family
    argv: list
    check: object      # stdout text -> None, or the reason it is wrong
    samples: list = field(default_factory=list)        # untraced cli.main seconds
    traced: list = field(default_factory=list)         # traced cli.main seconds
    digests: dict = field(default_factory=dict)        # stdout sha256 -> failure reason


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def structure_commands(rng, work):
    """validate and relation on a cyclic and a table group; ideals on few classes."""
    commands = []
    for fam in (gen.cyc(*CYC_STRUCTURE, rng), gen.s3_restricted((6,) * S3_COPIES, rng)):
        path = _write(os.path.join(work, fam.name + ".json"), fam.doc)
        commands.append(Command("validate_s", fam.name, ["validate", path],
                                partial(check.validate, fam)))
        commands.append(Command("relation_s", fam.name, ["relation", path],
                                partial(check.relation, fam)))
    s3 = gen.s3_restricted(S3_SIZES, rng)
    path = _write(os.path.join(work, s3.name + ".json"), s3.doc)
    commands.append(Command("ideals_s", s3.name, ["ideals", path], partial(check.ideals, s3)))
    return commands


def products_commands(rng, work):
    n, k, p = CYC_PRODUCTS
    commands = []
    for fam in (gen.chain(CHAIN_M, rng), gen.cyc(n, k, rng, modulus=p)):
        u, v = gen.dense_skew(fam, rng), gen.dense_skew(fam, rng)
        gu, gv = gen.gamma(fam, u), gen.gamma(fam, v)
        conv = gen.convolve(fam, gu, gv)
        base = os.path.join(work, fam.name)
        action = _write(base + ".json", fam.doc)
        u_path = _write(base + "-u.json", gen.skew_doc(fam, u))
        v_path = _write(base + "-v.json", gen.skew_doc(fam, v))
        gu_path = _write(base + "-gu.json", gen.rel_doc(fam, gu))
        gv_path = _write(base + "-gv.json", gen.rel_doc(fam, gv))
        commands += [
            Command("mul_skew_s", fam.name, ["mul", "--algebra", "skew", action, u_path, v_path],
                    partial(check.mul_skew, fam, conv)),
            Command("mul_rel_s", fam.name, ["mul", "--algebra", "rel", action, gu_path, gv_path],
                    partial(check.mul_rel, fam, conv)),
            Command("gamma_fwd_s", fam.name, ["gamma", "--dir", "fwd", action, u_path],
                    partial(check.gamma_fwd, fam, u)),
            Command("gamma_inv_s", fam.name, ["gamma", "--dir", "inv", action, gu_path],
                    partial(check.gamma_inv, fam, u)),
        ]
    return commands


def selftest_commands(seed, work):
    commands = []
    for run_seed in range(SELFTEST_RUNS * seed, SELFTEST_RUNS * (seed + 1)):
        argv = ["selftest", "--seed", str(run_seed), "--trials", str(SELFTEST_TRIALS)]
        commands.append(Command("selftest_s", "fixtures-seed-%d" % run_seed, argv,
                                partial(check.selftest, run_seed, SELFTEST_TRIALS)))
    return commands


def build_commands(workload, seed, work):
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "structure":
        return structure_commands(rng, work)
    if workload == "products":
        return products_commands(rng, work)
    return selftest_commands(seed, work)


@dataclass
class Outcome:
    rc: int
    main_s: float      # CPU seconds in cli.main
    setup_s: float
    rss_mb: float
    stdout: str
    reason: str | None = None


def run_child(argv, out_path, spans_path) -> Outcome:
    cmd = [sys.executable, "-I", CHILD, ROOT, out_path, spans_path, "--"] + argv
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        text = proc.stdout.read().decode("utf-8", "replace")
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mb = usage.ru_maxrss / 1024.0          # KiB on Linux
    try:
        meta = json.loads(text.strip().splitlines()[-1])
        with open(out_path, encoding="utf-8") as handle:
            stdout = handle.read()
    except (IndexError, ValueError, OSError):
        return Outcome(-1, 0.0, 0.0, rss_mb, "", "child failed: %s" % text[-500:])
    outcome = Outcome(meta["rc"], meta["main_s"], meta["ready"] - spawned, rss_mb, stdout)
    if proc.returncode != 0 or meta["rc"] != 0:
        outcome.reason = "exit %s: %s" % (meta["rc"], meta["stderr"].strip()[-300:])
    return outcome


def warm_up():
    """Import skewrel.cli in a fresh interpreter, which compiles the package's
    bytecode, so that no timed child pays for it."""
    code = "import sys; sys.path.insert(0, %r); import skewrel.cli" % os.path.join(ROOT, "src")
    subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT, check=True,
                   stdin=subprocess.DEVNULL, capture_output=True)


def command_time(samples) -> float:
    """A command's time in a run: the upper quartile of its samples.

    The machines this runs on alternate between two speeds about 1.8x apart,
    in phases of seconds; slow is the common phase. A median moves with the
    share of fast phases in a run, the upper quartile much less.
    """
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[2]


def percentile_summary(values):
    """Median, sample count, and the highest of p75..p99.9 with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "upper_quartile": command_time(ordered),
           "n": n}
    for p in (99.9, 99, 95, 90, 75):
        if n * (1 - p / 100) >= 10:
            out["p%g" % p] = ordered[max(0, math.ceil(p / 100 * n) - 1)]
            break
    return out


class Layers:
    """Per-pass sums of the traced per-layer numbers."""

    def __init__(self):
        self.spans: dict = {}
        self.counts: dict = {}
        self.maxima: dict = {}

    def add(self, trace: dict):
        for name, entry in tracing.summarize(trace["spans"]).items():
            mine = self.spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in mine:
                mine[key] += entry[key]
        for name, value in trace["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + value
        for name, value in trace["maxima"].items():
            self.maxima[name] = max(self.maxima.get(name, 0), value)

    def value(self, rule: str):
        kind, _, name = rule.partition(":")
        if kind in ("self", "total", "calls"):
            key = {"self": "self_s", "total": "total_s", "calls": "calls"}[kind]
            return self.spans.get(name, {}).get(key, 0)
        if kind == "count":
            return self.counts.get(name, 0)
        if kind == "max":
            return self.maxima.get(name, 0)
        top, _, bottom = name.partition("/")
        return self.counts.get(top, 0) / self.counts[bottom] if self.counts.get(bottom) else 0.0


def measure(commands, work, seconds, trace):
    """Run passes until the time is up.

    Returns (passes, outcomes, layer passes, setup samples)."""
    out_dir, spans_dir = os.path.join(work, "out"), os.path.join(work, "spans")
    os.makedirs(out_dir)
    os.makedirs(spans_dir)
    outcomes, layer_passes, setups = [], [], []
    started = time.perf_counter()
    passes = untraced = traced_passes = 0
    while True:
        traced = bool(trace) and passes % 2 == 1
        layers = Layers()
        for i, cmd in enumerate(commands):
            spans_path = os.path.join(spans_dir, "%d.json" % i) if traced else "-"
            outcome = run_child(cmd.argv, os.path.join(out_dir, "%d.txt" % i), spans_path)
            digest = hashlib.sha256(outcome.stdout.encode("utf-8")).hexdigest()
            if outcome.reason is None:
                if digest not in cmd.digests:
                    cmd.digests[digest] = cmd.check(outcome.stdout)
                outcome.reason = cmd.digests[digest]
            else:
                cmd.digests.setdefault(digest, outcome.reason)
            outcomes.append((traced, outcome))
            if not traced:
                setups.append(outcome.setup_s)
            (cmd.traced if traced else cmd.samples).append(outcome.main_s)
            if traced and outcome.rc == 0:
                with open(spans_path, encoding="utf-8") as handle:
                    layers.add(json.load(handle))
        passes += 1
        if traced:
            traced_passes += 1
            layer_passes.append(layers)
        else:
            untraced += 1
        done = time.perf_counter() - started >= seconds
        if done and untraced >= (2 if trace else 3) and traced_passes >= (1 if trace else 0):
            return passes, outcomes, layer_passes, setups


def end_to_end(workload, commands, outcomes, setups):
    metrics = {}
    for name in WORKLOAD_METRICS[workload]:
        metrics[name] = sum(command_time(c.samples) for c in commands if c.metric == name)
    untraced = [o for traced, o in outcomes if not traced]
    return {
        "pass_s": sum(metrics.values()),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(o.rss_mb for o in untraced),
    }, metrics


def per_layer(commands, layer_passes):
    out = {name: statistics.median(p.value(RULES[name]) for p in layer_passes)
           for name in PER_LAYER_NAMES if name != "trace.overhead_frac"}
    traced = sum(command_time(c.traced) for c in commands)
    plain = sum(command_time(c.samples) for c in commands)
    out["trace.overhead_frac"] = traced / plain - 1
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_METRICS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "skewrel", "cli.py")):
        print("no skewrel package under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    commands = build_commands(args.workload, args.seed, work)
    warm_up()

    passes, outcomes, layer_passes, setups = measure(commands, work, args.seconds, args.trace)
    failures = [o.reason for _traced, o in outcomes if o.reason is not None]
    e2e, command_metrics = end_to_end(args.workload, commands, outcomes, setups)
    metrics = per_layer(commands, layer_passes) if args.trace else e2e

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "attempted": len(outcomes), "failed": len(failures),
        "failed_frac": len(failures) / len(outcomes),
        "failures": sorted(set(failures))[:10],
        "end_to_end": e2e,
        "commands": command_metrics,
        "command_samples": [
            {"metric": c.metric, "document": c.document, "argv0": c.argv[0],
             "untraced": percentile_summary(c.samples), "samples": c.samples,
             "stdout_sha256": sorted(c.digests)} for c in commands],
        "setup_samples": percentile_summary(setups), "setups": setups,
    }
    if args.trace:
        report["per_layer"] = metrics
    with open(os.path.join(WORK, "report-%s-trace%d.json" % (args.workload, args.trace)),
              "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)

    print("workload %s, seed %d, %d passes (%s), python %s, %s cores"
          % (args.workload, args.seed, passes, "traced and untraced alternating"
             if args.trace else "untraced", report["python"], report["nproc"]))
    print("failed_frac %.4f ratio (%d failed of %d attempted)"
          % (report["failed_frac"], report["failed"], report["attempted"]))
    for reason in report["failures"]:
        print("  failure: %s" % reason)
    for c in report["command_samples"]:
        stats = c["untraced"]
        extra = "".join(", %s %.4f s" % (k, v) for k, v in stats.items() if k[0] == "p")
        print("%-12s %-24s upper quartile %.4f s, median %.4f s of %d%s; stdout sha256 %s"
              % (c["metric"], c["document"], stats["upper_quartile"], stats["median"],
                 stats["n"], extra,
                 ",".join(d[:16] for d in c["stdout_sha256"])))
    for name, value in command_metrics.items():
        print("%-12s %.4f s" % (name, value))
    for name, value in e2e.items():
        print("%-12s %.4f %s" % (name, value, UNITS[name]))
    if args.trace:
        for name, value in metrics.items():
            print("%-38s %s %s" % (name, round(value, 6), UNITS[name]))
    print(json.dumps({
        "correct": not failures, "attempted": len(outcomes), "failed": len(failures),
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
