"""Benchmark for regcycles: three seeded workloads, one closed-loop client.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root.  Each pass of a workload runs in a fresh,
single-threaded Python process (worker.py) that sets up its inputs from the
seed and then runs the workload's items one after another.  A run makes
--seconds / PASS_S[workload] passes, rounded, at least one; the figures
reported are medians over passes.  setup_s is the median of SETUP_RUNS
set-up-only processes.

With --trace 0 the end-to-end metrics are printed; with --trace 1 each
traced pass is paired with an untraced one, and the per-layer metrics from
the traced pass are printed with trace.overhead_s, the difference in wall
time.  The last line of standard output is one JSON object.  Any wrong
output makes the exit code 1.

Times are scaled to the speed of the reference host (see Probe in
worker.py); the table prints them as measured as well.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from worker import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("verify", "build-compare", "certify-sweep")
BASELINE_SEED = 1
SETUP_RUNS = 7
# Seconds of a run given to one pass.  The pass count is fixed by --seconds
# and these, not by how fast the first pass happened to run: a count chosen
# from measured time would give slow runs fewer passes and widen the
# run-to-run spread.  At --seconds 35, verify and certify-sweep make one
# pass (about 20-35 s and 15-25 s as measured) and build-compare two (about
# 10-17 s each), so that a run ends in about 40 s even on a slow host.
PASS_S = {"verify": 35, "build-compare": 17, "certify-sweep": 35}
DEADLINE_S = 170  # every run must end within 180 s

END_TO_END = [("wall_s", "s"), ("item_p50_ms", "ms"), ("item_tail_ms", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s")]


class BenchError(Exception):
    """A pass could not be run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload, seed, deadline, trace=False, setup_only=False):
    """Run one pass (or one set-up) in a fresh process; its JSON result."""
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir]
    if trace:
        cmd += ["--trace", str(OUT_DIR / f"spans-{workload}-{seed}.npz")]
    if setup_only:
        cmd.append("--setup-only")
    try:
        timeout = deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the pass started")
        t0 = time.monotonic()
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT,
                              env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass passed the deadline") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def measure(workload, seed, seconds, trace, deadline):
    """All passes of one workload run; (metrics, summary) for printing."""
    setups = [run_worker(workload, seed, deadline, setup_only=True)
              for _ in range(SETUP_RUNS)]
    plain, traced = [], []
    start = time.monotonic()
    for _ in range(max(1, round(seconds / PASS_S[workload]))):
        plain.append(run_worker(workload, seed, deadline))
        if trace:
            traced.append(run_worker(workload, seed, deadline, trace=True))
        now = time.monotonic()
        if now + (now - start) / len(plain) > deadline:
            break  # a program slow enough to pass the deadline
    passes = plain + traced
    summary = {
        "passes": len(plain),
        "items": plain[0]["items"],
        "tail_percentile": plain[0]["tail_percentile"],
        "setups": len(setups),
        "attempted": sum(p["items"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "failures": sum((Counter(p["failures"]) for p in passes), Counter()),
        "wrong": [w for p in passes for w in p["wrong"]],
    }
    if trace:
        layers = {name: statistics.median(p["per_layer"][name]
                                          for p in traced)
                  for name in traced[0]["per_layer"]}
        layers["trace.overhead_s"] = (_median(traced, "wall_s")
                                      - _median(plain, "wall_s"))
        summary["traced_wall_s"] = _median(traced, "wall_s")
        return layers, summary
    metrics = {name: _median(plain, name) for name, _ in END_TO_END
               if name != "setup_s"}
    metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    summary["raw"] = {name: statistics.median(p["raw"][name] for p in plain)
                      for name in plain[0]["raw"]}
    summary["raw"]["setup_s"] = statistics.median(s["raw_setup_s"]
                                                  for s in setups)
    summary["slowdown"] = _median(plain, "slowdown")
    return metrics, summary


def print_table(workload, seed, metrics, summary, trace):
    n_items, passes = summary["items"], summary["passes"]
    print(f"== {workload}  seed {seed}  {passes} pass(es) of {n_items} items"
          f"  (closed loop, 1 client)")
    if trace:
        for name, value in metrics.items():
            print(f"  {name:40s} {value:14.6f} {LAYER_UNITS[name]}")
        print(f"  traced wall_s {summary['traced_wall_s']:.4f} s")
    else:
        counts = {"wall_s": f"n={passes} passes",
                  "item_p50_ms": f"n={n_items} items",
                  "item_tail_ms": f"p{summary['tail_percentile']:.2f}, "
                                  f"n={n_items} items",
                  "peak_rss_mb": f"n={passes} passes",
                  "setup_s": f"n={summary['setups']} set-ups"}
        raw = summary["raw"]
        for name, unit in END_TO_END:
            measured = (f"; {raw[name]:.4f} {unit} as measured"
                        if name in raw else "")
            print(f"  {name:14s} {metrics[name]:14.4f} {unit:6s}"
                  f" ({counts[name]}{measured})")
        print(f"  {'host slowdown':14s} {summary['slowdown']:14.4f} x      "
              f"(median probe time over the reference's)")
    ratio = summary["failed"] / summary["attempted"]
    kinds = ", ".join(f"{k} x{v}" for k, v in
                      sorted(summary["failures"].items())) or "none"
    print(f"  {'fail_ratio':14s} {ratio:14.4f} {'ratio':6s}"
          f" ({summary['failed']} of {summary['attempted']} items; {kinds})")
    for line in summary["wrong"][:20]:
        print(f"  WRONG {line}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "regcycles" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        deadline = time.monotonic() + DEADLINE_S
        try:
            metrics, summary = measure(workload, args.seed, args.seconds,
                                       args.trace == 1, deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_table(workload, args.seed, metrics, summary, args.trace == 1)
        combined["correct"] &= not summary["wrong"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        units = LAYER_UNITS if args.trace else dict(END_TO_END)
        prefix = "" if len(workloads) == 1 else f"{workload}."
        for name, value in metrics.items():
            combined["metrics"][prefix + name] = {
                "value": value, "unit": units.get(name, "")}
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
