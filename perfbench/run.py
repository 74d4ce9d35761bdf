#!/usr/bin/env python3
"""Benchmark of the replicated store: one workload, one seed, one result.

Usage (from the repository root):

    python3 perfbench/run.py --workload read-mostly --seed 1 --seconds 10 --trace 0

Builds perfbench/bench.exe with dune, then runs one simulation per fresh
process.  A run simulates SIMS sub-seeds derived from --seed, then repeats
them round-robin until --seconds have passed; every repeat must reproduce
its simulated outcome exactly.  Each simulated metric is the mean over the
sub-seeds: it is exact for a seed, so only the seeds vary and the mean
spreads least.  ops_per_s and setup_s are medians over every simulation,
each scaled by the machine's slowness at the time (perfbench/calib.ml).  --trace 0 prints the end-to-end metrics of
BENCHMARK.json; --trace 1 prints the per-layer metrics, from traced
simulations next to untraced ones of the same sub-seeds.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A failed correctness check makes correct
false; a build or run error exits non-zero without printing a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIMS = 16  # simulations per end-to-end run, one sub-seed each
TRACED_SIMS = 3  # sub-seeds of a per-layer run, each run traced and untraced
RUN_TIMEOUT_S = 60
WALL = ("ops_per_s", "setup_s")
# End-to-end metrics a traced simulation need not reproduce: the hooks and
# micro-benchmarks read clocks and allocate, but never touch the simulation.
TRACE_VARIANT = WALL + ("minor_words_per_op", "peak_heap_mb")


class BenchError(Exception):
    pass


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("not a checkout of the repository: %s is missing" % need)
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "perfbench/bench.exe"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=850,
    )
    if proc.returncode != 0:
        raise BenchError("build failed:\n" + proc.stdout[-4000:])
    return os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def sub_seed(seed, i):
    return seed * 16 + i


def simulate(exe, workload, seed, traced=False, extra=()):
    """One simulation in a fresh bench.exe process."""
    cmd = [exe, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    cmd.extend(extra)
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError("%s failed (exit %d): %s" % (" ".join(cmd), proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def simulated(r, exclude=()):
    """The part of a result that depends only on the simulation."""
    return ({k: v for k, v in r["e2e"].items() if k not in exclude}, r["counted"], r["checks"])


def collect(exe, args, sims, seconds, traced=False):
    """Simulates sub-seeds 0..sims-1, then repeats them round-robin until
    [seconds] have passed.  Returns {sub-seed: [results]}."""
    runs = {}
    start = time.monotonic()
    i = 0
    while i < sims or time.monotonic() - start < seconds:
        s = sub_seed(args.seed, i % sims)
        runs.setdefault(s, []).append(simulate(exe, args.workload, s, traced))
        i += 1
    return runs


def medians(results, part):
    return {k: statistics.median(r[part][k] for r in results) for k in results[0][part]}


def means(results, part):
    return {k: statistics.fmean(r[part][k] for r in results) for k in results[0][part]}


def summary(runs, variant):
    """First results, all results and checks; [variant] lists the metrics
    that repeats need not reproduce."""
    firsts = [rs[0] for rs in runs.values()]
    every = [r for rs in runs.values() for r in rs]
    checks = {}
    for r in every:
        for k, ok in r["checks"].items():
            checks[k] = checks.get(k, True) and ok
    # Every repeat of a sub-seed reproduces its simulated outcome exactly.
    checks["reproducible"] = all(
        simulated(r, variant) == simulated(rs[0], variant)
        for rs in runs.values() for r in rs)
    return firsts, every, checks


def end_to_end(exe, args):
    firsts, every, checks = summary(collect(exe, args, SIMS, args.seconds), WALL)
    metrics = means(firsts, "e2e")
    metrics.update({k: v for k, v in medians(every, "e2e").items() if k in WALL})
    return metrics, checks, firsts


def per_layer(exe, args):
    """Traced and untraced simulations of the same sub-seeds, interleaved
    so that the machine's drift affects both alike."""
    plain, traced = {}, {}
    start = time.monotonic()
    i = 0
    while i < TRACED_SIMS or time.monotonic() - start < args.seconds:
        s = sub_seed(args.seed, i % TRACED_SIMS)
        plain.setdefault(s, []).append(simulate(exe, args.workload, s))
        traced.setdefault(s, []).append(simulate(exe, args.workload, s, traced=True))
        i += 1
    firsts, every, checks = summary(traced, TRACE_VARIANT)
    metrics = means(firsts, "counted")
    metrics.update(medians(every, "layers"))
    plain_ops = statistics.median(r["e2e"]["ops_per_s"] for rs in plain.values() for r in rs)
    traced_ops = statistics.median(r["e2e"]["ops_per_s"] for r in every)
    metrics["trace.overhead_ratio"] = plain_ops / traced_ops
    # The hooks must not change the simulation.
    checks["trace_invisible"] = all(
        simulated(plain[s][0], TRACE_VARIANT) == simulated(traced[s][0], TRACE_VARIANT)
        for s in traced)
    return metrics, checks, firsts


def report(args, names, metrics, checks, firsts):
    if set(metrics) != {m["name"] for m in names}:
        raise BenchError("metrics differ from BENCHMARK.json: %s" % ", ".join(
            sorted(set(metrics) ^ {m["name"] for m in names})))
    print("workload %s  seed %d  trace %d  sub-seeds %s" % (
        args.workload, args.seed, args.trace, ",".join(str(r["seed"]) for r in firsts)))
    out = {}
    for m in names:
        v = metrics[m["name"]]
        out[m["name"]] = {"value": v, "unit": m["unit"]}
        print("  %-36s %16.6g %s" % (m["name"], v, m["unit"]))
    for k in sorted(firsts[0]["info"]):
        if args.trace == 1 or not k.startswith("method."):
            values = [r["info"][k] for r in firsts]
            print("  %-36s %s" % (k, values[0] if len(set(values)) == 1 else " ".join(values)))
    if firsts[0]["micro"]:
        for k, v in medians(firsts, "micro").items():
            print("  %-36s %16.6g ns/call" % ("micro." + k, v))
    failed_checks = [k for k, ok in checks.items() if not ok]
    print("  checks: %s" % ("all passed" if not failed_checks else "FAILED " + ", ".join(failed_checks)))
    print(json.dumps({
        "correct": not failed_checks,
        "attempted": sum(r["attempted"] for r in firsts),
        "failed": sum(r["failed"] for r in firsts),
        "metrics": out,
    }))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        s = spec()
        if args.workload not in [w["name"] for w in s["workloads"]]:
            raise BenchError("unknown workload %r" % args.workload)
        exe = build()
        if args.trace == 0:
            metrics, checks, firsts = end_to_end(exe, args)
            report(args, s["end_to_end"], metrics, checks, firsts)
        else:
            metrics, checks, firsts = per_layer(exe, args)
            report(args, s["per_layer"], metrics, checks, firsts)
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        print("benchmark error: %s" % e, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
