"""One workload pass in a fresh process: set up, run every item, check.

Started by run.py with PYTHONPATH pointing at the package source.  Prints
one JSON object with the pass's measurements as the last line of standard
output.  With --setup-only it stops where the first item would start.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

TAIL_BEYOND = 10  # items beyond the tail percentile

# The host's speed drifts with the load of other tenants, by up to 1.9x
# over minutes, and raw times taken minutes apart spread far past any
# useful bound.  Each pass therefore samples the speed of the host it runs
# on with a fixed probe, run before the first item, after the last, and
# between items whenever PROBE_EVERY_S has passed since the last probe, and
# reports its times scaled by PROBE_REF_S / (median probe time): seconds on
# the reference host, a 2-vCPU Xeon at 2.0 GHz in its quiet state.  The
# probe does not touch the package, so a change to the package moves the
# scaled times as it moves the raw ones.  Probe time is left out of every
# timed interval.
PROBE_EVERY_S = 0.1
PROBE_REF_S = 0.0022
SETUP_PROBES = 25

LAYER_UNITS = {
    "perm.element_array.s": "s",
    "perm.element_array.calls": "count",
    "perm.elements": "count",
    "perm.element_array.mb": "MB",
    "perm.parse_group_file.s": "s",
    "perm.has_regular_cycle_direct.s": "s",
    "regcycle.verify_all_elements.self_s": "s",
    "regcycle.rows_checked": "count",
    "regcycle.fix_union_test.s": "s",
    "regcycle.fix_union_test.calls": "count",
    "regcycle.compare_actions_monotonic.s": "s",
    "regcycle.words_sampled": "count",
    "numtheory.factorize.s": "s",
    "numtheory.factorize.calls": "count",
    "numtheory.factorize.distinct_ratio": "ratio",
    "bounds.certify_case.self_s": "s",
    "bounds.certify_case.calls": "count",
    "bounds.certified_ratio": "ratio",
    "bounds.scans.s": "s",
    "geometry.domain.s": "s",
    "geometry.domain.points": "count",
    "geometry.perm_image.s": "s",
    "geometry.perm_image.applications": "count",
    "geometry.builtin_matrix_group.s": "s",
    "cli.self_s": "s",
    "trace.item_coverage": "ratio",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class Probe:
    """Fixed work that does not touch the package: a tight interpreted loop,
    interpreted code with a large footprint (an argparse parser built and
    used, a JSON round trip), and numpy passes over an array of 1 MB."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._array = np.arange(1 << 17, dtype=np.int64)
        self._doc = {"rows": [{"id": i, "name": f"row-{i}", "tags": ["a"] * 3}
                              for i in range(60)]}
        self.times: list[float] = []

    def __call__(self) -> None:
        start = perf_counter()
        total, row = 0, []
        for i in range(6000):
            total += i * i % 7
            row.append(total)
        row.sort()
        parser = argparse.ArgumentParser(prog="probe")
        sub = parser.add_subparsers(dest="command")
        for name in ("alpha", "gamma"):
            cmd = sub.add_parser(name, help=name)
            cmd.add_argument("--n", type=int, default=1)
            cmd.add_argument("--mode", choices=("x", "y", "z"))
            cmd.add_argument("--flag", action="store_true")
        parsed = parser.parse_args(["gamma", "--n", "7", "--mode", "y"])
        total += parsed.n + len(json.loads(json.dumps(self._doc))["rows"])
        np, a = self._np, self._array
        total += int((a * 3 + total).sum()) + int(np.cumsum(a)[-1])
        self.times.append(perf_counter() - start)

    def slowdown(self) -> float:
        """How many times slower than the reference host this host ran."""
        return statistics.median(self.times) / PROBE_REF_S


def tail(latencies):
    """(value, percentile): the highest percentile with >= 10 items above."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def per_layer(tracer, wall_s: float) -> dict:
    summary = tracer.summary()

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    counts = tracer.counts
    factorize_calls = get("numtheory.factorize", "calls")
    bound_calls = (get("bounds.certify_case", "calls")
                   + get("bounds.triality_bound", "calls"))
    return {
        "perm.element_array.s": get("perm.element_array", "s"),
        "perm.element_array.calls": get("perm.element_array", "calls"),
        "perm.elements": counts.get("perm.elements", 0),
        "perm.element_array.mb":
            counts.get("perm.element_array.bytes", 0) / 2**20,
        "perm.parse_group_file.s": get("perm.parse_group_file", "s"),
        "perm.has_regular_cycle_direct.s":
            get("perm.has_regular_cycle_direct", "s"),
        "regcycle.verify_all_elements.self_s":
            get("regcycle.verify_all_elements", "self_s"),
        "regcycle.rows_checked": counts.get("regcycle.rows_checked", 0),
        "regcycle.fix_union_test.s": get("regcycle.fix_union_test", "s"),
        "regcycle.fix_union_test.calls":
            get("regcycle.fix_union_test", "calls"),
        "regcycle.compare_actions_monotonic.s":
            get("regcycle.compare_actions_monotonic", "s"),
        "regcycle.words_sampled": counts.get("regcycle.words_sampled", 0),
        "numtheory.factorize.s": get("numtheory.factorize", "s"),
        "numtheory.factorize.calls": factorize_calls,
        "numtheory.factorize.distinct_ratio":
            len(tracer.factorize_args) / factorize_calls
            if factorize_calls else 0.0,
        "bounds.certify_case.self_s": get("bounds.certify_case", "self_s"),
        "bounds.certify_case.calls": get("bounds.certify_case", "calls"),
        "bounds.certified_ratio":
            counts.get("bounds.certified", 0) / bound_calls
            if bound_calls else 0.0,
        "bounds.scans.s": get("bounds.scans", "s"),
        "geometry.domain.s": get("geometry.domain", "s"),
        "geometry.domain.points": counts.get("geometry.domain.points", 0),
        "geometry.perm_image.s": get("geometry.perm_image", "s"),
        "geometry.perm_image.applications":
            counts.get("geometry.perm_image.applications", 0),
        "geometry.builtin_matrix_group.s":
            get("geometry.builtin_matrix_group", "s"),
        "cli.self_s": get("cli.main", "self_s"),
        "trace.item_coverage": get("bench.item", "s") / wall_s,
        "trace.spans": len(tracer.start),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--trace", default=None,
                        help="record spans and write them to this file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS
    items = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    setup_s = time.monotonic() - args.t0
    probe = Probe()
    if args.setup_only:
        for _ in range(SETUP_PROBES):
            probe()
        print(json.dumps({"setup_s": setup_s / probe.slowdown(),
                          "raw_setup_s": setup_s}))
        return 0

    latencies, outcomes = [], []
    wall_start = perf_counter()
    probe()
    last_probe = perf_counter()
    for index, item in enumerate(items):
        if perf_counter() - last_probe >= PROBE_EVERY_S:
            probe()
            last_probe = perf_counter()
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if tracer is None:
                    code = item.run()
                else:
                    tracer.current_item = index
                    code = tracer.call("bench.item", item.run)
            raised = None
        except Exception as exc:  # counted as a failed item
            code, raised = None, type(exc).__name__
        latencies.append(perf_counter() - start)
        outcomes.append((code, raised, out.getvalue(), err.getvalue()))
    probe()
    wall_s = perf_counter() - wall_start - sum(probe.times)
    slowdown = probe.slowdown()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures: dict[str, int] = {}
    wrong = []
    for item, (code, raised, out, err) in zip(items, outcomes):
        if raised is None and "Traceback (most recent call last)" in out + err:
            raised = "traceback printed"
        elif raised is None and code not in item.codes:
            raised = f"exit {code}"
        if raised is not None:
            failures[raised] = failures.get(raised, 0) + 1
            if raised != item.raises:
                wrong.append(f"{item.label}: failed ({raised}): "
                             f"{(out + err)[-300:]!r}")
            continue
        try:
            message = item.check(code, out)
        except (ValueError, KeyError, IndexError, TypeError,
                AttributeError) as exc:
            message = f"unreadable output ({exc!r}): {out[-200:]!r}"
        if message:
            wrong.append(f"{item.label}: {message}")

    tail_s, tail_pct = tail(latencies)
    raw = {"wall_s": wall_s,
           "item_p50_ms": 1e3 * statistics.median(latencies),
           "item_tail_ms": 1e3 * tail_s}
    result = {
        **{name: value / slowdown for name, value in raw.items()},
        "raw": raw,
        "slowdown": slowdown,
        "probes": len(probe.times),
        "tail_percentile": tail_pct,
        "items": len(items),
        "peak_rss_mb": peak_rss_mb,
        "failed": sum(failures.values()),
        "failures": failures,
        "wrong": wrong,
    }
    if tracer is not None:
        result["per_layer"] = per_layer(tracer, wall_s)
        tracer.save(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
