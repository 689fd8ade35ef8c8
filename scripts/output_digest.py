"""Print one SHA-256 per benchmark workload and seed, over everything the
workload's items leave behind, so that two checkouts can be compared
byte for byte in one command.

    python3 scripts/output_digest.py [--workload NAME ...] [--seed N ...]

By default every workload of `perfbench/workloads.py` runs on seeds 1
and 2.  Each workload and seed runs in a fresh Python process, set up as
the benchmark sets up its passes: the package from the `src` directory of
this script's checkout, `PYTHONHASHSEED=0` and one thread for numpy.  The
process builds the items in a new temporary work directory, runs them in
order, in process, with standard output and error captured, and hashes,
for each item, its label, its exit code (or the type and message of the
exception it raised), its standard output and its standard error; then
the relative path and contents of every file left in the work directory,
in sorted order.  The work directory's path is masked everywhere, so
equal outputs give equal digests.  Each line printed reads

    WORKLOAD seed=N items=K sha256=HEX

The script only imports `perfbench/`; it changes nothing there.
"""

import argparse
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)


def digest(workload: str, seed: int) -> str:
    """The digest line of one workload and seed, run in this process."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(prefix=f"digest-{workload}-") as tmp:
        workdir = Path(tmp)
        mask = str(workdir).encode()
        h = hashlib.sha256()

        def add(data: bytes):
            data = data.replace(mask, b"<workdir>")
            h.update(len(data).to_bytes(8, "big") + data)

        items = WORKLOADS[workload](seed, workdir)
        for item in items:
            out, err = io.StringIO(), io.StringIO()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = repr(item.run())
            except Exception as exc:  # the benchmark counts it as failed
                code = f"{type(exc).__name__}: {exc}"
            for text in (item.label, code, out.getvalue(), err.getvalue()):
                add(text.encode())
        for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
            add(str(path.relative_to(workdir)).encode())
            add(path.read_bytes())
    return (f"{workload} seed={seed} items={len(items)} "
            f"sha256={h.hexdigest()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=("verify", "build-compare", "certify-sweep"),
                        help="a workload to run (default: all three)")
    parser.add_argument("--seed", action="append", type=int,
                        help=f"a seed to run (default: {SEEDS})")
    parser.add_argument("--in-process", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workloads = args.workload or ["verify", "build-compare", "certify-sweep"]
    seeds = args.seed or list(SEEDS)
    if args.in_process:
        for workload in workloads:
            for seed in seeds:
                print(digest(workload, seed), flush=True)
        return 0
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               NUMEXPR_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    status = 0
    for workload in workloads:
        for seed in seeds:
            done = subprocess.run(
                [sys.executable, __file__, "--in-process",
                 "--workload", workload, "--seed", str(seed)],
                env=env, stdout=subprocess.PIPE, text=True)
            print(done.stdout, end="", flush=True)
            status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
