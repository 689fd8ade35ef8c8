"""The candidate pool of `certify` inputs, with the verdicts recorded for it.

Every certify-sweep run draws its items from this fixed pool, so that each
drawn item has a verdict recorded from the package as it stood when the
benchmark was defined.  The pool is stratified into cells of (q bucket,
case): q is log-uniform over prime powers up to 10**6, split into
Q_BUCKETS equal buckets of log q, and each run draws the same number of
items from every cell.  That keeps the cost of a run nearly the same from
one seed to the next, while the items themselves differ.  Case vi has its
own cell: every (n, q) with n <= 48 and q a power of 2 up to 64.

Regenerate the recorded verdicts (about a minute) with

    PYTHONPATH=src python3 perfbench/certify_pool.py

run from the repository root.  Entries whose evaluation raised are recorded
with a null verdict and the exception type; `ms` is the in-library
evaluation time on the recording machine, kept to explain the cell costs.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from pathlib import Path

POOL_FILE = Path(__file__).with_name("certify_pool.json")
POOL_SEED = 14061702
Q_MAX = 10**6
Q_BUCKETS = 10
PER_CELL = 16
CASES = ("i", "ii", "iii", "iv", "triality")

_LINEAR_N = range(5, 13)
_SP_N = range(6, 13, 2)
_ODD_ORTH = [("POmega", n) for n in (7, 9, 11)]
_EVEN_ORTH = [(f, n) for f in ("POmega+", "POmega-") for n in (8, 10, 12)]

# (family, n) pairs that bounds.certify_case accepts for each case, read off
# the case pipelines' documented ranges; a usage error (exit 2) is never
# drawn.
COMBOS = {
    "i": ([("PSL", n) for n in _LINEAR_N] + [("PSU", n) for n in _LINEAR_N]
          + _ODD_ORTH + _EVEN_ORTH),
    "ii": [("PSU", n) for n in _LINEAR_N] + _ODD_ORTH + _EVEN_ORTH,
    "iii": ([("PSU", n) for n in _LINEAR_N] + [("PSp", n) for n in _SP_N]
            + _ODD_ORTH + _EVEN_ORTH),
    "iv": _ODD_ORTH + _EVEN_ORTH,
    "triality": [(None, None)],
}
VI_N = range(6, 49, 2)
VI_Q = (2, 4, 8, 16, 32, 64)


def prime_powers(limit: int) -> list[int]:
    """All prime powers 2 <= q <= limit, ascending (own sieve)."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(range(p * p, limit + 1, p)))
    out = set()
    for p in range(2, limit + 1):
        if sieve[p]:
            pk = p
            while pk <= limit:
                out.add(pk)
                pk *= p
    return sorted(out)


def candidates() -> list[dict]:
    """The pool entries, without verdicts; deterministic."""
    import bisect

    qs = prime_powers(Q_MAX)
    odd_qs = [q for q in qs if q % 2]
    lo, hi = math.log(2), math.log(Q_MAX)
    width = (hi - lo) / Q_BUCKETS
    rng = random.Random(POOL_SEED)
    pool = []
    for bucket in range(Q_BUCKETS):
        for case in CASES:
            for _ in range(PER_CELL):
                family, n = rng.choice(COMBOS[case])
                target = math.exp(lo + (bucket + rng.random()) * width)
                pick = odd_qs if family == "POmega" else qs
                q = pick[min(bisect.bisect_left(pick, target), len(pick) - 1)]
                pool.append({"cell": f"{bucket}/{case}", "case": case,
                             "family": family, "n": n, "q": q})
    for n in VI_N:
        for q in VI_Q:
            pool.append({"cell": "vi", "case": "vi", "family": "PSp",
                         "n": n, "q": q})
    return pool


def argv(entry: dict) -> list[str]:
    """The `certify --json` argument vector for one pool entry."""
    args = ["certify", "--json", "--case", entry["case"],
            "--q", str(entry["q"])]
    if entry["family"] is not None:
        args += ["--family", entry["family"], "--n", str(entry["n"])]
    return args


def load() -> list[dict]:
    """The recorded pool: entries with their recorded verdicts."""
    return json.loads(POOL_FILE.read_text(encoding="utf-8"))


def record() -> None:
    from regcycles import bounds

    pool = candidates()
    t0 = time.perf_counter()
    for i, entry in enumerate(pool):
        start = time.perf_counter()
        try:
            if entry["case"] == "triality":
                report = bounds.triality_bound(entry["q"])
            else:
                gid = bounds.GroupId(entry["family"], entry["n"], entry["q"])
                report = bounds.certify_case(entry["case"], gid)
            entry["verdict"], entry["raises"] = report.verdict, None
        except ArithmeticError as exc:  # OverflowError past the cap
            entry["verdict"], entry["raises"] = None, type(exc).__name__
        entry["ms"] = round(1e3 * (time.perf_counter() - start), 3)
        if i % 200 == 0:
            print(f"{i}/{len(pool)} {time.perf_counter() - t0:.1f}s",
                  file=sys.stderr)
    POOL_FILE.write_text("[\n" + ",\n".join(
        json.dumps(e, sort_keys=True) for e in pool) + "\n]\n",
        encoding="utf-8")


if __name__ == "__main__":
    record()
