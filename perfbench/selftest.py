#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the repository root:

    python3 perfbench/selftest.py

- names: both modes of run.py print exactly the metrics of BENCHMARK.json.
- determinism: a workload and seed give identical counts and simulated-time
  metrics on every run; another seed changes them.
- negative control: write-heavy-crash with an async WAL and no catch-up
  (the repo's known-unsafe configuration) must make the consistency checks
  report at least one violation, and the run must be marked incorrect.
- de-optimised control: read-mostly with the uncached reference quorum
  assembly must be flagged worse than its bound on minor_words_per_op, and
  the traced run must put the extra time in plan_cache.  The change in
  ops_per_s is reported next to its bound.

Exits non-zero when a test fails.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

WORKLOADS = [w["name"] for w in bench.spec()["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in bench.spec()["end_to_end"]}
LAYERS = ["engine", "plan_cache", "network", "replica", "store", "wal", "coordinator",
          "lock_manager", "obs", "rng", "driver"]
failures = []


def check(ok, what):
    print("  %s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def test_names():
    print("names")
    spec = bench.spec()
    for trace, part in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            cwd=bench.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        check(proc.returncode == 0, "run.py --trace %d exits 0 (%s)" % (trace, proc.stderr.strip()[-200:]))
        if proc.returncode != 0:
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
              "--trace %d prints the four result keys" % trace)
        check(set(result["metrics"]) == {m["name"] for m in spec[part]},
              "--trace %d prints exactly the %s metrics" % (trace, part))
        check(result["correct"] is True, "--trace %d run is correct" % trace)


def test_determinism(exe):
    print("determinism")
    for w in WORKLOADS:
        a = bench.simulate(exe, w, 7)
        b = bench.simulate(exe, w, 7)
        c = bench.simulate(exe, w, 8)
        same = bench.simulated(a, bench.WALL) == bench.simulated(b, bench.WALL)
        check(same, "%s: seed 7 twice gives identical counts and simulated metrics" % w)
        moved = [k for k in ("read_p99_ms", "write_p99_ms", "msgs_per_op", "max_stall_ms",
                             "minor_words_per_op")
                 if a["e2e"][k] != c["e2e"][k]]
        check(len(moved) == 5 and a["counted"]["engine.events_per_op"] != c["counted"]["engine.events_per_op"],
              "%s: seed 8 changes the latencies, msgs, stall, words and events (%s)" % (w, ",".join(moved)))


def test_negative_control(exe):
    print("negative control")
    for seed in (1, 2):
        r = bench.simulate(exe, "write-heavy-crash", seed, extra=["--negative-control"])
        v = int(r["info"]["violations_checker"]) + int(r["info"]["violations_driver"])
        check(v >= 1, "seed %d: async WAL without catch-up gives %d violations (>= 1)" % (seed, v))
        check(r["correct"] is False and not r["checks"]["consistency"],
              "seed %d: the run is marked incorrect" % seed)
    r = bench.simulate(exe, "write-heavy-crash", 1)
    check(r["correct"] and r["info"]["violations_checker"] == "0",
          "seed 1 with the real configuration has no violation")


def test_deopt(exe, pairs=6):
    print("de-optimised control (read-mostly, reference quorum assembly)")
    base, deopt = [], []
    for i in range(pairs):
        s = bench.sub_seed(1, i % 3)
        for traced in (False, True):
            base.append(bench.simulate(exe, "read-mostly", s, traced))
            deopt.append(bench.simulate(exe, "read-mostly", s, traced, ["--deopt"]))

    def plain(rs):
        return [r for r in rs if not r["traced"]]

    def traced(rs):
        return [r for r in rs if r["traced"]]

    def worse_by(metric, b, d, better):
        mb = statistics.median(r["e2e"][metric] for r in plain(b))
        md = statistics.median(r["e2e"][metric] for r in plain(d))
        return (mb - md) / mb if better == "higher" else (md - mb) / mb

    w = worse_by("minor_words_per_op", base, deopt, "lower")
    check(w > BOUNDS["minor_words_per_op"],
          "minor_words_per_op worse by %.1f%%, beyond its bound %.0f%%: flagged"
          % (100 * w, 100 * BOUNDS["minor_words_per_op"]))
    w = worse_by("ops_per_s", base, deopt, "higher")
    print("  info  ops_per_s worse by %.1f%% against its bound %.0f%%: %s"
          % (100 * w, 100 * BOUNDS["ops_per_s"],
             "flagged" if w > BOUNDS["ops_per_s"] else "not flagged (within the noise bound)"))

    def layer_ns_per_op(rs, layer):
        return statistics.median(
            r["layers"][layer + ".self_share"] * 1e9 / r["e2e"]["ops_per_s"] for r in traced(rs))

    deltas = {l: layer_ns_per_op(deopt, l) - layer_ns_per_op(base, l) for l in LAYERS}
    top = max(deltas, key=deltas.get)
    print("  info  traced self ns/op change: %s" % ", ".join(
        "%s %+.0f" % (l, deltas[l]) for l in LAYERS))
    check(top == "plan_cache", "the traced run puts the largest extra time in plan_cache (%s)" % top)


def main():
    exe = bench.build()
    test_names()
    test_determinism(exe)
    test_negative_control(exe)
    test_deopt(exe)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
