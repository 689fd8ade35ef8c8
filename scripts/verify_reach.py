"""Time fresh `regcycles` processes: `verify` and `compare` on the bundled
classical-group actions, `check` on one large element, `certify` and
`scan` with and without a tables file, and `verify` refusing a group past
its cap.

    python3 scripts/verify_reach.py [NAME ...]

Each action of the reach table below (all but O7(3) when no NAME is given)
is built into a group file by `build-action --builtin` in one fresh
process, which is not timed, and verified by `verify --json --cap CAP` in
another.  One JSON line per action gives the verify process's wall time and
peak RSS (its own ru_maxrss, from os.wait4), its exit code, verdict and
count of elements checked, and the kernel rows its counting pass reads,
from the readings the chain chooses (``regcycle._orbit_readings``),
computed in a third, untimed process: in all, and by the reading of the
orbits of G_(1) they are read for (whole, branch or pairs).  A verdict
of failures also reads whole cosets of G_(1) for its witnesses, which
that count leaves out.

Each pair of the compare table (both run when no NAME is given) is built
the same way, its non-degenerate 2-subspaces through the library in a
process of its own, as `build-action` has no such type, and compared by
`compare --json --samples 10000` in a fresh process.  Its JSON line
gives that process's wall time and peak RSS, its exit code and whether
the pair was monotone.
The script reads only the generator files bundled with the package, from
the `src` directory of its own checkout.

The check table's one element, a cycle of each prime length below 110 on
1,480 points (order about 2**148), is written with its cyclic group to a
group file by this script, untimed, and checked by `check --json
--element` in a fresh process.  Its JSON line gives that process's wall
time and peak RSS, its exit code, the element's verdict and S(g).

Each row of the certify table runs one `certify --json` case, and each row
of the scan table one `scan --json --theorem`, in a fresh process, with
nothing built first but the one-entry tables file that a `--tables` row
reads (`TABLES`).  Its JSON line gives that process's wall time and peak
RSS, its exit code and the verdict, or the number of groups flagged.  A
fresh process pays for every import its subcommand makes, so these rows
time the start of the CLI as much as its work.

Each row of the build table writes one group file in a fresh process:
`build-action --builtin` for an action of the bundled groups, or, for
O7(3), its non-degenerate 2-subspaces (66,339 points) built and written
through the library.  Its JSON line gives that process's wall time and
peak RSS, its exit code, the degree and the SHA-256 of the file written,
so that two checkouts can be compared byte for byte.

Each row of the refusal table writes Sym(m), as an m-cycle and a
transposition, to a group file, untimed, and runs `verify --cap CAP` on
it in a fresh process.  Its JSON line gives that process's wall time and
peak RSS, its exit code and its one line on stderr.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
CLI = "import sys; from regcycles.cli import main; sys.exit(main())"
# writes the group file (argv[2]) of a builtin group (argv[1]) on its
# non-degenerate 2-subspaces
BUILD_ND2 = """import sys
from regcycles import geometry, perm
space, gens = geometry.builtin_matrix_group(sys.argv[1])
G = geometry.perm_image(gens, geometry.nondegenerate_2_subspaces(space))
with open(sys.argv[2], "w", encoding="utf-8") as fh:
    fh.write(perm.emit_group_file(G))
"""
# prints the kernel rows of verify's counting pass on the group file
# argv[1] at --cap argv[2], as JSON, by the reading of the orbits of G_(1)
VERIFY_ROWS = """import json, sys
from regcycles import perm, regcycle
with open(sys.argv[1], encoding="utf-8") as fh:
    G = perm.parse_group_file(fh.read())
chain = G.stabilizer_chain(int(sys.argv[2]))
by_kind = {}
for _orbit, rows, kind in regcycle._orbit_readings(chain)[0]:
    by_kind[kind] = by_kind.get(kind, 0) + rows
print(json.dumps(by_kind))
"""

# name: (builtin group, build-action type, verify --cap)
REACH = {
    "sp6_2-points": ("sp6_2", "singular-points", 10**7),
    "su5_2-points": ("su5_2", "singular-points", 2 * 10**7),
    "su5_2-maxts": ("su5_2", "maxts", 2 * 10**7),
    "o8p_2-points": ("o8p_2", "singular-points", 10**9),
    "o8p_2-maxts": ("o8p_2", "maxts", 10**9),
    "o7_3-points": ("o7_3", "singular-points", 10**11),
}
# name: builtin group whose singular points and non-degenerate
# 2-subspaces are compared
COMPARE = {
    "sp6_2-points-nd2": "sp6_2",
    "o8p_2-points-nd2": "o8p_2",
}
COMPARE_SAMPLES = 10**4
# name: the primes below which the element has one cycle of each prime
# length, and check --cap
CHECK = {"cyc1480-element": (110, 10**45)}
# the tables file of the --tables rows, which stand "TABLES" for its path
TABLES = '{"PSL:5:7": {"min_degree": 100}}'
# name: certify arguments
CERTIFY = {
    "certify-PSL5-7": ["--case", "i", "--family", "PSL", "--n", "5",
                       "--q", "7"],
    "certify-PSL5-7-tables": ["--case", "i", "--family", "PSL", "--n", "5",
                              "--q", "7", "--tables", "TABLES"],
}
# name: scan arguments
SCAN = {
    "scan-dagger": ["--theorem", "dagger"],
    "scan-nonsubspace-tables": ["--theorem", "nonsubspace", "--tables",
                                "TABLES"],
}
# name: the build-action arguments of a fresh-process build, or the builtin
# group whose non-degenerate 2-subspaces the library builds (BUILD_ND2)
BUILD = {
    "build-o7_3-ns1": ["--builtin", "o7_3", "--type", "ns1"],
    "build-su5_2-maxts": ["--builtin", "su5_2", "--type", "maxts"],
    "build-o7_3-nd2": "o7_3",
}
# name: the degree m of Sym(m), and verify --cap
REFUSE = {"sym20000-cap100": (20000, 100)}
DEFAULT = [name for name in REACH if name != "o7_3-points"] + list(COMPARE) \
    + list(CHECK) + list(CERTIFY) + list(SCAN) + list(BUILD) + list(REFUSE)


def run_cli(argv, stderr=None, code=CLI):
    """Run the CLI, or other Python `code`, in a fresh process with
    arguments `argv`, its stderr to the file `stderr` if given: (exit
    code, stdout, wall seconds, peak RSS in MB of that process)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code, *argv], env=env,
                            stdout=subprocess.PIPE, stderr=stderr)
    out = proc.stdout.read()
    proc.stdout.close()
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), wall, usage.ru_maxrss / 1024


def build(name, builtin, kind, workdir):
    """The group file of one `build-action --builtin` run (untimed)."""
    path = os.path.join(workdir, f"{name}.grp")
    code, _out, _wall, _rss = run_cli(["build-action", "--builtin", builtin,
                                       "--type", kind, "--out", path])
    if code != 0:
        raise SystemExit(f"build-action for {name} exited {code}")
    return path


def reach(name, workdir):
    builtin, kind, cap = REACH[name]
    path = build(name, builtin, kind, workdir)
    with open(path, encoding="utf-8") as fh:
        degree = int(fh.readline().split()[1])
    code, out, wall, rss = run_cli(["verify", "--group", path, "--json",
                                    "--cap", str(cap)])
    report = json.loads(out) if code in (0, 1) else {}
    by_kind = None
    if report:
        _code, text, _wall, _rss = run_cli([path, str(cap)],
                                           code=VERIFY_ROWS)
        by_kind = json.loads(text)
    return {"action": name, "degree": degree, "cap": cap, "exit": code,
            "verdict": report.get("verdict"),
            "checked": report.get("checked"),
            "kernel_rows": by_kind and sum(by_kind.values()),
            "kernel_rows_by_kind": by_kind, "wall_s": round(wall, 3),
            "peak_rss_mb": round(rss, 1)}


def compare(name, workdir):
    builtin = COMPARE[name]
    points = build(f"{name}-points", builtin, "singular-points", workdir)
    nd2 = os.path.join(workdir, f"{name}-nd2.grp")
    # built in a process of its own (untimed): a child's peak RSS counts
    # what it shares with this process when it starts, so this process
    # imports nothing of the package
    subprocess.run([sys.executable, "-c", BUILD_ND2, builtin, nd2],
                   env=dict(os.environ, PYTHONPATH=SRC), check=True)
    code, out, wall, rss = run_cli(["compare", "--json", "--action1", points,
                                    "--action2", nd2, "--samples",
                                    str(COMPARE_SAMPLES)])
    report = json.loads(out) if code in (0, 1) else {}
    return {"action": name, "samples": COMPARE_SAMPLES, "exit": code,
            "monotone": report.get("monotone"), "wall_s": round(wall, 3),
            "peak_rss_mb": round(rss, 1)}


def check(name, workdir):
    below, cap = CHECK[name]
    cycles, start = [], 1
    for p in range(2, below):
        if all(p % r for r in range(2, p)):
            cycles.append("(" + " ".join(map(str, range(start, start + p)))
                          + ")")
            start += p
    element = "".join(cycles)
    path = os.path.join(workdir, f"{name}.grp")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"degree {start - 1}\n{element}\n")
    code, out, wall, rss = run_cli(["check", "--group", path, "--element",
                                    element, "--json", "--cap", str(cap)])
    report = json.loads(out) if code in (0, 1) else {}
    s_value = (f"{report['s_value_num']}/{report['s_value_den']}"
               if report else None)
    return {"action": name, "degree": start - 1, "cap": cap, "exit": code,
            "has_regular_cycle": report.get("has_regular_cycle"),
            "s_value": s_value, "wall_s": round(wall, 3),
            "peak_rss_mb": round(rss, 1)}


def with_tables(argv, workdir):
    """argv with "TABLES" replaced by the path of the TABLES file, written
    untimed."""
    path = os.path.join(workdir, "tables.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TABLES)
    return [path if a == "TABLES" else a for a in argv]


def certify(name, workdir):
    code, out, wall, rss = run_cli(["certify", "--json",
                                    *with_tables(CERTIFY[name], workdir)])
    report = json.loads(out) if code in (0, 1) else {}
    return {"action": name, "exit": code, "verdict": report.get("verdict"),
            "wall_s": round(wall, 3), "peak_rss_mb": round(rss, 1)}


def scan(name, workdir):
    code, out, wall, rss = run_cli(["scan", "--json",
                                    *with_tables(SCAN[name], workdir)])
    return {"action": name, "exit": code,
            "flagged": len(out.splitlines()) if code == 0 else None,
            "wall_s": round(wall, 3), "peak_rss_mb": round(rss, 1)}


def build_row(name, workdir):
    spec = BUILD[name]
    path = os.path.join(workdir, f"{name}.grp")
    if isinstance(spec, str):
        code, _out, wall, rss = run_cli([spec, path], code=BUILD_ND2)
    else:
        code, _out, wall, rss = run_cli(["build-action", *spec, "--out",
                                         path])
    with open(path, "rb") as fh:
        text = fh.read()
    return {"action": name, "exit": code,
            "degree": int(text.split(b"\n", 1)[0].split()[1]),
            "sha256": hashlib.sha256(text).hexdigest(),
            "wall_s": round(wall, 3), "peak_rss_mb": round(rss, 1)}


def refuse(name, workdir):
    m, cap = REFUSE[name]
    path = os.path.join(workdir, f"{name}.grp")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"degree {m}\n({' '.join(map(str, range(1, m + 1)))})\n"
                 "(1 2)\n")
    with tempfile.TemporaryFile() as err:
        code, _out, wall, rss = run_cli(["verify", "--group", path, "--cap",
                                         str(cap)], stderr=err)
        err.seek(0)
        line = err.read().decode().strip()
    return {"action": name, "degree": m, "cap": cap, "exit": code,
            "stderr": line, "wall_s": round(wall, 3),
            "peak_rss_mb": round(rss, 1)}


RUNS = {**dict.fromkeys(REACH, reach), **dict.fromkeys(COMPARE, compare),
        **dict.fromkeys(CHECK, check), **dict.fromkeys(CERTIFY, certify),
        **dict.fromkeys(SCAN, scan), **dict.fromkeys(BUILD, build_row),
        **dict.fromkeys(REFUSE, refuse)}


def main(names):
    unknown = [name for name in names if name not in RUNS]
    if unknown:
        raise SystemExit(f"unknown action(s) {', '.join(unknown)}; "
                         f"known: {', '.join(RUNS)}")
    with tempfile.TemporaryDirectory() as workdir:
        for name in names or DEFAULT:
            print(json.dumps(RUNS[name](name, workdir), sort_keys=True),
                  flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
