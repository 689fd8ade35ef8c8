"""End-to-end tests of the command-line interface.

Each test drives main(argv) directly and asserts on the exit code and the
captured streams; a few do full build -> verify round trips through the
on-disk file formats.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perm_reference import alternating_group, cyclic_group
from regcycles import bounds, cli, geometry, perm, regcycle
from regcycles.cli import main


@pytest.fixture
def alt8_file(tmp_path):
    path = tmp_path / "alt8.grp"
    path.write_text(perm.emit_group_file(alternating_group(8)))
    return str(path)


@pytest.fixture
def alt5_file(tmp_path):
    path = tmp_path / "alt5.grp"
    path.write_text(perm.emit_group_file(alternating_group(5)))
    return str(path)


class TestCheck:
    def test_witness_element(self, alt8_file, capsys):
        # order 6, but the 1-, 2- and 3-power fixed sets cover everything
        code = main(["check", "--group", alt8_file,
                     "--element", "(1 2 3)(4 5)(6 7)"])
        assert code == 1
        assert "witness" in capsys.readouterr().out

    def test_regular_element(self, alt8_file, capsys):
        code = main(["check", "--group", alt8_file,
                     "--element", "(1 2 3 4 5)"])
        assert code == 0

    def test_whole_group(self, alt5_file):
        assert main(["check", "--group", alt5_file]) == 0

    def test_json_output(self, alt8_file, capsys):
        code = main(["check", "--group", alt8_file, "--json",
                     "--element", "(1 2 3)(4 5)(6 7)"])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == 1
        assert data["order"] == 6
        assert not data["has_regular_cycle"]

    def test_bad_element_is_usage_error(self, alt8_file, capsys):
        code = main(["check", "--group", alt8_file, "--element", "(1 99)"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["check", "--group", "/no/such/file.grp"]) == 2

    def test_element_outside_group(self, tmp_path, capsys):
        path = tmp_path / "v4.grp"
        path.write_text("degree 4\n(1 2)(3 4)\n")
        code = main(["check", "--group", str(path), "--element", "(1 2 3)"])
        assert code == 2
        assert "not in the group" in capsys.readouterr().err

    def test_element_cap(self, alt8_file, capsys):
        code = main(["check", "--group", alt8_file, "--cap", "100",
                     "--element", "(1 2 3)"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_whole_group_witness_matches_verify(self, alt8_file, capsys):
        assert main(["check", "--group", alt8_file, "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert not data["has_regular_cycle"]
        assert main(["verify", "--group", alt8_file, "--json"]) == 1
        verified = json.loads(capsys.readouterr().out)
        assert data["element"] == verified["witness_cycles"][0]

    def test_element_of_order_past_the_factorization_cap(self, tmp_path,
                                                         capsys):
        # the cyclic group of one cycle of each prime length below 110,
        # on 1,480 points: its generator has order about 2**148
        primes = [p for p in range(2, 110)
                  if all(p % r for r in range(2, p))]
        images, start = [], 0
        for p in primes:
            images += [start + (i + 1) % p for i in range(p)]
            start += p
        g = perm.cycle_string(images)
        path = tmp_path / "cyc.grp"
        path.write_text(f"degree {start}\n{g}\n")
        code = main(["check", "--group", str(path), "--element", g,
                     "--cap", str(10**45), "--json"])
        out, err = capsys.readouterr()
        assert (code, err) == (1, "")
        data = json.loads(out)
        assert data["order"] == math.prod(primes)
        assert data["has_regular_cycle"] is False
        assert (data["s_value_num"], data["s_value_den"]) == (28, 1)
        assert data["fix_union_size"] == data["degree"] == 1480

    def test_whole_group_checked_count(self, alt5_file, capsys):
        assert main(["check", "--group", alt5_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"schema": 1, "verdict": "all-regular", "checked": 60}


class TestVerify:
    def test_alt5_all_regular(self, alt5_file):
        assert main(["verify", "--group", alt5_file]) == 0

    def test_alt8_has_failures(self, alt8_file, capsys):
        code = main(["verify", "--group", alt8_file, "--json"])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "failures"
        assert data["witness_cycles"]

    def test_square_free_only_same_verdict(self, alt8_file):
        assert main(["verify", "--group", alt8_file,
                     "--square-free-only"]) == 1

    def test_cap(self, alt8_file, capsys):
        assert main(["verify", "--group", alt8_file, "--cap", "100"]) == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "--cap", "100"],
        ["check", "--element", "(1 2)", "--cap", "100"]],
        ids=["verify", "check-element"])
    def test_cap_refuses_before_the_first_transversal(self, tmp_path, capsys,
                                                      argv):
        # Sym(20000) as a 20,000-cycle and a transposition: its first
        # orbit passes the cap, so the chain refuses before it builds a
        # 20,000 x 20,000 transversal
        path = tmp_path / "sym20000.grp"
        path.write_text(perm.emit_group_file(perm.symmetric_group(20000)))
        start = time.perf_counter()
        code = main([argv[0], "--group", str(path), *argv[1:]])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", "error: more than 100 elements\n")
        assert elapsed < 1


class TestClosedStdout:
    """A reader that closes stdout early ends the run in one line, exit 2,
    whether the output is flushed while printing or at the end of main;
    with stderr on the same closed pipe (``2>&1 | true``) the run still
    exits 2, silently."""

    ARGVS = {
        "verify": ["verify", "--group", "ALT5"],
        "certify": ["certify", "--case", "vi", "--family", "PSp", "--n",
                    "6", "--q", "4"],
        "build-action": ["build-action", "--type", "ksets", "--m", "5",
                         "--k", "2", "--out", "OUT"],
    }

    @staticmethod
    def _run(tmp_path, alt5_file, argv, unbuffered, stderr_closed):
        paths = {"ALT5": alt5_file, "OUT": str(tmp_path / "out.grp"),
                 "MISSING": str(tmp_path / "missing.grp")}
        argv = [paths.get(a, a) for a in argv]
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            return subprocess.run(
                [sys.executable, "-m", "regcycles.cli", *argv],
                stdout=write_end,
                stderr=write_end if stderr_closed else subprocess.PIPE,
                env=env, timeout=60)
        finally:
            os.close(write_end)

    @pytest.mark.parametrize("unbuffered", ["", "1"],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", ARGVS.values(), ids=ARGVS)
    def test_one_line_exit_2(self, tmp_path, alt5_file, argv, unbuffered):
        proc = self._run(tmp_path, alt5_file, argv, unbuffered, False)
        assert proc.returncode == 2
        assert proc.stderr == (b"error: stdout was closed before the "
                               b"output was written\n")

    @pytest.mark.parametrize("unbuffered", ["", "1"],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        *ARGVS.values(), ["verify", "--group", "MISSING"],
        ["verify", "--group", "ALT5", "--cap", "0"]],
        ids=[*ARGVS, "missing-group-file", "bad-argument"])
    def test_closed_stderr_too_exits_2(self, tmp_path, alt5_file, argv,
                                       unbuffered):
        proc = self._run(tmp_path, alt5_file, argv, unbuffered, True)
        assert proc.returncode == 2


class TestSubcommandImports:
    """A fresh process loads only the layers its subcommand runs: certify
    and scan never import numpy, with a tables file or without."""

    # run main, then list on stderr every module the process has loaded
    LIST_MODULES = ("import sys\n"
                    "from regcycles.cli import main\n"
                    "code = main(sys.argv[1:])\n"
                    "print(' '.join(sys.modules), file=sys.stderr)\n"
                    "sys.exit(code)\n")
    NUMERIC = {"numpy", "regcycles.geometry", "regcycles.perm",
               "regcycles.regcycle"}
    ARGVS = {
        "certify": (["certify", "--case", "i", "--family", "PSL", "--n",
                     "5", "--q", "7"], NUMERIC),
        "certify-tables": (["certify", "--case", "i", "--family", "PSL",
                            "--n", "5", "--q", "7", "--tables", "TABLES"],
                           NUMERIC),
        "scan-tables": (["scan", "--theorem", "nonsubspace", "--tables",
                         "TABLES"], NUMERIC),
        "certify-triality": (["certify", "--case", "triality", "--q", "3"],
                             NUMERIC),
        "scan": (["scan", "--theorem", "dagger", "--json"], NUMERIC),
        "verify": (["verify", "--group", "ALT5"],
                   {"regcycles.bounds", "regcycles.geometry"}),
        "check": (["check", "--group", "ALT5"],
                  {"regcycles.bounds", "regcycles.geometry"}),
        "check-element": (["check", "--group", "ALT5", "--element",
                           "(1 2 3)"],
                          {"regcycles.bounds", "regcycles.geometry"}),
        "compare": (["compare", "--action1", "ALT5", "--action2", "ALT5",
                     "--samples", "10"],
                    {"regcycles.bounds", "regcycles.geometry"}),
        "build-action-ksets": (["build-action", "--type", "ksets", "--m",
                                "5", "--k", "2", "--out", "OUT"],
                               {"regcycles.bounds", "regcycles.regcycle"}),
        "build-action-builtin": (["build-action", "--builtin", "sp6_2",
                                  "--type", "singular-points", "--out",
                                  "OUT"],
                                 {"regcycles.bounds", "regcycles.regcycle"}),
    }

    @pytest.mark.parametrize("argv, unloaded", ARGVS.values(), ids=ARGVS)
    def test_loads_only_its_layers(self, tmp_path, alt5_file, argv,
                                   unloaded):
        tables = tmp_path / "tables.json"
        tables.write_text('{"PSL:5:7": {"min_degree": 100}}')
        paths = {"ALT5": alt5_file, "OUT": str(tmp_path / "out.grp"),
                 "TABLES": str(tables)}
        argv = [paths.get(a, a) for a in argv]
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", self.LIST_MODULES,
                               *argv], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stderr.split())
        assert "regcycles.cli" in loaded
        assert not loaded & unloaded


class TestOpenBlasThreads:
    """A fresh process runs numpy's OpenBLAS on one thread, unless its
    environment names a count of its own: ``main`` sets the default
    before any handler imports numpy, which starts the thread pool."""

    # run main, then print on stderr the thread count setting and, where
    # /proc lists them, the threads of the process
    SHOW = ("import os, sys\n"
            "from regcycles.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "tasks = '/proc/self/task'\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'),\n"
            "      len(os.listdir(tasks)) if os.path.isdir(tasks) else '-',\n"
            "      'numpy' in sys.modules, file=sys.stderr)\n"
            "sys.exit(code)\n")

    @pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "preset"])
    def test_one_thread_unless_set(self, alt5_file, preset):
        src = str(Path(__file__).parents[1] / "src")
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run([sys.executable, "-c", self.SHOW, "verify",
                               "--group", alt5_file], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        setting, threads, numpy_loaded = proc.stderr.split()
        assert numpy_loaded == "True"
        assert setting == (preset or "1")
        if preset is None and threads != "-":
            assert threads == "1"


# q**n past 2**4096: GroupId refuses these before it forms q**n, which for
# n = 10**10, q = 3 alone would take about 2 GB
_PAST_THE_QN_CAP = [
    ["--case", "i", "--family", "PSL", "--n", "20000", "--q", "2"],
    ["--case", "i", "--family", "PSL", "--n", "1000000", "--q", "2"],
    ["--case", "i", "--family", "PSL", "--n", "100000000", "--q", "2"],
    ["--case", "iii", "--family", "PSp", "--n", "1000000", "--q", "2"],
    ["--case", "ii", "--family", "POmega+", "--n", "1000000", "--q", "3"],
    ["--case", "i", "--family", "PSL", "--n", "99999999999", "--q", "2"],
    ["--case", "i", "--family", "PSL", "--n", "10000000000", "--q", "3"],
    ["--case", "vi", "--family", "PSp", "--n", "10000000", "--q", "4"],
]


class TestCertify:
    def test_certified_example(self, capsys):
        code = main(["certify", "--case", "ii", "--family", "POmega-",
                     "--n", "8", "--q", "11", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "certified"
        assert data["total"] < 1
        assert data["s1_terms"]

    def test_inconclusive_is_exit_1(self):
        assert main(["certify", "--case", "iii", "--family", "PSp",
                     "--n", "6", "--q", "2"]) == 1

    def test_triality(self, capsys):
        assert main(["certify", "--case", "triality", "--q", "3"]) == 0
        assert main(["certify", "--case", "triality", "--q", "4"]) == 1

    def test_bad_parameters(self, capsys):
        code = main(["certify", "--case", "i", "--family", "POmega",
                     "--n", "8", "--q", "3"])
        assert code == 2

    def test_missing_family(self):
        assert main(["certify", "--case", "i", "--q", "3"]) == 2

    def test_unknown_family_names_the_families(self, capsys):
        # GroupId is the one refusal of a family, and lists bounds.FAMILIES
        assert main(["certify", "--case", "i", "--family", "PSX", "--n", "5",
                     "--q", "7"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: unknown family 'PSX' (the families are PSL, "
                       "PSU, PSp, POmega, POmega+, POmega-)\n")

    @pytest.mark.parametrize("argv", [
        ["--case", "vi", "--family", "PSp", "--n", "44", "--q", "8"],
        ["--case", "ii", "--family", "PSU", "--n", "6", "--q", "100000007"],
    ])
    def test_powers_past_the_factorization_cap(self, argv, capsys):
        # some q**l here exceeds numtheory.FACTOR_CAP, so it cannot be factored
        code = main(["certify", "--json"] + argv)
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        data = json.loads(out)
        assert data["verdict"] in ("certified", "inconclusive")
        assert code == (0 if data["verdict"] == "certified" else 1)

    def test_large_prime_q(self, capsys):
        start = time.perf_counter()
        code = main(["certify", "--case", "i", "--family", "PSL", "--n", "5",
                     "--q", "1000000000000000003"])  # 10**18 + 3, a prime
        assert time.perf_counter() - start < 5
        assert code == 0
        assert "certified" in capsys.readouterr().out

    def test_q_past_the_proven_primality_range(self, capsys):
        # q is proven prime; the certificate then needs to factor numbers
        # past the factorization cap
        code = main(["certify", "--case", "i", "--family", "PSL", "--n", "5",
                     "--q", str(2**89 - 1)])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert "exceeds factorization cap" in err

    @pytest.mark.parametrize("argv", _PAST_THE_QN_CAP)
    def test_q_to_the_n_past_the_cap(self, argv, capsys):
        start = time.perf_counter()
        assert main(["certify", *argv]) == 2
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: q**n = ") and err.count("\n") == 1
        assert "exceeds the cap 2**4096" in err

    @pytest.mark.parametrize("argv", [
        ["--case", "i", "--family", "PSL", "--n", "4096", "--q", "2"],
        ["--case", "iii", "--family", "PSU", "--n", "2048", "--q", "2"],
        ["--case", "ii", "--family", "POmega", "--n", "2583", "--q", "3"],
    ], ids=["PSL-2**4096", "PSU-2**2048", "POmega-3**2583"])
    def test_q_to_the_n_at_the_cap(self, argv, capsys):
        assert main(["certify", *argv]) in (0, 1)
        out, err = capsys.readouterr()
        assert err == ""
        group = f"{argv[3]}_{argv[5]}({argv[7]})"
        assert out.startswith(f"{group} case {argv[1]}: ")

    def test_tables_file(self, tmp_path, capsys):
        tables = tmp_path / "tables.json"
        tables.write_text('{"PSp:6:2": {"max_order": 3}}')
        code = main(["certify", "--case", "iii", "--family", "PSp",
                     "--n", "6", "--q", "2", "--tables", str(tables)])
        assert code == 0


class TestMalformedTables:
    """Each of these tables once ended in a traceback or, for a
    non-integer max order, in a certificate; now each is an input error."""

    CERTIFY = ["certify", "--case", "iii", "--family", "PSp", "--n", "6",
               "--q", "2"]
    NONSUBSPACE = ["scan", "--theorem", "nonsubspace"]

    @pytest.mark.parametrize("text, argv", [
        ('{"PSp:6:2": 5}', CERTIFY),
        ('{"PSp:6:2": 5}', NONSUBSPACE),
        ('{"PSp:6:2": {"max_order": "abc"}}', CERTIFY),
        ('{"PSL:6:11": {"min_degree": 100, "iota_num": 1, "iota_den": 0}}',
         NONSUBSPACE),
        ('{"PSp:6:2": {"max_order": 2.5}}', CERTIFY),
        ('{"a":' * 100000 + '1' + '}' * 100000, NONSUBSPACE),
    ], ids=["entry-not-object-certify", "entry-not-object-scan",
            "string-order", "zero-den", "float-order", "deep-nesting"])
    def test_one_line_error_exit_2(self, tmp_path, capsys, text, argv):
        tables = tmp_path / "tables.json"
        tables.write_text(text)
        assert main(argv + ["--tables", str(tables)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "bad external tables" in err

    @pytest.mark.parametrize("argv", [CERTIFY, NONSUBSPACE],
                             ids=["certify", "scan"])
    def test_over_long_integer_ends_in_one_plain_line(self, tmp_path,
                                                      capsys, argv):
        # past int()'s 4300 digits, whose message advised a sys setting
        tables = tmp_path / "tables.json"
        tables.write_text('{"PSp:6:2": {"max_order": ' + "9" * 5000 + "}}")
        assert main(argv + ["--tables", str(tables)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {tables}: bad external tables: integer "
                       f"{'9' * 20}... (5000 characters) is too long\n")


class TestScan:
    def test_small_dim_jsonl(self, capsys):
        assert main(["scan", "--theorem", "small-dim", "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [json.loads(line) for line in lines]
        assert all(row["schema"] == 1 for row in rows)
        flagged = {(r["family"], r["n"], r["q"]) for r in rows}
        assert ("PSL", 3, 4) in flagged
        assert ("PSp", 4, 4) in flagged
        assert ("PSL", 2, 19) in flagged

    def test_dagger(self, capsys):
        assert main(["scan", "--theorem", "dagger"]) == 0
        out = capsys.readouterr().out
        assert "PSp_6(2)" in out

    def test_deterministic(self, capsys):
        main(["scan", "--theorem", "dagger", "--json"])
        first = capsys.readouterr().out
        main(["scan", "--theorem", "dagger", "--json"])
        assert capsys.readouterr().out == first


class TestBuildAction:
    def test_ksets_round_trip(self, tmp_path, capsys):
        out = tmp_path / "s5_on_pairs.grp"
        code = main(["build-action", "--type", "ksets", "--m", "5",
                     "--k", "2", "--out", str(out)])
        assert code == 0
        G = perm.parse_group_file(out.read_text())
        assert G.degree == 10
        assert G.stabilizer_chain().order == 120
        labels = (tmp_path / "s5_on_pairs.grp.labels").read_text()
        assert len(labels.strip().splitlines()) == 10
        # the emitted file verifies cleanly (Sym(5) on pairs is all-regular
        # for 5-cycles but not for every element; just check it runs)
        assert main(["verify", "--group", str(out)]) in (0, 1)

    def test_product_action(self, tmp_path):
        out = tmp_path / "s3wr2.grp"
        assert main(["build-action", "--type", "product", "--m", "3",
                     "--r", "2", "--out", str(out)]) == 0
        G = perm.parse_group_file(out.read_text())
        assert G.degree == 9
        assert G.stabilizer_chain().order == 72

    def test_product_of_k_sets(self, tmp_path):
        # Sym(5) wr Sym(2) on pairs of 2-sets
        out = tmp_path / "s5pairs_wr2.grp"
        assert main(["build-action", "--type", "product", "--m", "5",
                     "--k", "2", "--r", "2", "--out", str(out)]) == 0
        G = perm.parse_group_file(out.read_text())
        assert G.degree == 100
        assert G.stabilizer_chain().order \
            == 2 * math.factorial(5) ** 2 == 28800
        labels = (tmp_path / "s5pairs_wr2.grp.labels").read_text()
        assert labels.splitlines()[0] == "1 2 | 1 2"
        assert len(labels.splitlines()) == 100

    def test_product_with_k_1_keeps_the_symmetric_group_generators(
            self, tmp_path):
        out = tmp_path / "s4wr3.grp"
        assert main(["build-action", "--type", "product", "--m", "4",
                     "--r", "3", "--out", str(out)]) == 0
        base = perm.symmetric_group(4)
        assert out.read_text() == perm.emit_group_file(
            geometry.product_action(base, 3))
        assert (tmp_path / "s4wr3.grp.labels").read_text() == "\n".join(
            geometry.product_labels(range(1, 5), 3)) + "\n"

    def test_product_of_k_sets_past_the_cap_is_refused_unbuilt(
            self, tmp_path, capsys):
        # C(20, 3)**3 = 1140**3 points: refused before any row is formed
        start = time.perf_counter()
        assert main(["build-action", "--type", "product", "--m", "20",
                     "--k", "3", "--r", "3",
                     "--out", str(tmp_path / "out.grp")]) == 2
        assert time.perf_counter() - start < 1
        _out, err = capsys.readouterr()
        assert err == (f"error: domain size 1140**3 exceeds cap "
                       f"{perm.DEFAULT_DOMAIN_CAP}\n")
        assert not (tmp_path / "out.grp").exists()

    def test_builtin_singular_points(self, tmp_path, capsys):
        out = tmp_path / "sp62.grp"
        code = main(["build-action", "--type", "singular-points",
                     "--builtin", "sp6_2", "--out", str(out)])
        assert code == 0
        G = perm.parse_group_file(out.read_text())
        assert G.degree == 63
        assert G.stabilizer_chain().order == 1451520

    def test_forms_domain(self, tmp_path):
        out = tmp_path / "sp62_forms.grp"
        assert main(["build-action", "--type", "forms", "--builtin",
                     "sp6_2", "--epsilon", "-", "--out", str(out)]) == 0
        G = perm.parse_group_file(out.read_text())
        assert G.degree == 28

    def test_forms_of_a_quadratic_space_are_refused(self, tmp_path,
                                                   capsys):
        # the one refusal, quadratic_forms_polarizing's
        out = tmp_path / "o8p2_forms.grp"
        assert main(["build-action", "--type", "forms", "--builtin",
                     "o8p_2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: polarizing forms need a symplectic space in "
            "characteristic 2\n")
        assert not out.exists()

    def test_needs_matrix_source(self, capsys):
        assert main(["build-action", "--type", "maxts",
                     "--out", "/tmp/x.grp"]) == 2

    def test_unknown_builtin(self, capsys):
        assert main(["build-action", "--type", "maxts", "--builtin",
                     "nope", "--out", "/tmp/x.grp"]) == 2


class TestErrorTable:
    """Library errors raised under build-action end in one line, exit 2."""

    @pytest.mark.parametrize("argv", [
        ["--type", "ksets", "--m", "3", "--k", "5"],
        ["--type", "ksets", "--m", "0", "--k", "0"],
        ["--type", "product", "--m", "0", "--r", "2"],
        ["--type", "product", "--m", "5", "--k", "0", "--r", "2"],
        ["--type", "product", "--m", "5", "--k", "6", "--r", "2"],
        ["--type", "ns1", "--builtin", "sp6_2"],
        ["--type", "aniso2", "--builtin", "sp6_2"],
        ["--type", "pairs-le", "--builtin", "sp6_2", "--k", "3"],
        ["--type", "singular-points", "--matrix", "SP20_2"],
        ["--type", "maxts", "--matrix", "SP20_2"],
        ["--type", "ksets", "--m", "40", "--k", "20"],
        ["--type", "product", "--m", "3000000", "--r", "1"],
        ["--type", "product", "--m", "3", "--r", "16000000"],
        ["--type", "maxts", "--matrix", "QMINUS2_2"],
        ["--type", "maxts", "--matrix", "QO1_3"],
        ["--type", "maxts", "--matrix", "HERMITIAN1_4"],
    ], ids=["ksets-k-above-m", "ksets-zero", "product-zero",
            "product-k-zero", "product-k-above-m", "ns1-symplectic",
            "aniso2-symplectic", "pairs-k-too-large",
            "singular-points-past-cap", "maxts-past-cap",
            "ksets-past-default-cap", "product-large-m", "product-large-r",
            "maxts-witt-0-quadratic-minus", "maxts-witt-0-quadratic-odd",
            "maxts-witt-0-hermitian"])
    def test_one_line_error_exit_2(self, tmp_path, capsys, argv):
        files = {
            # a dim-20 GF(2) symplectic space: 2**20 vectors, past the cap
            "SP20_2": ("GF 2 1", 20, "symplectic"),
            # forms of Witt index 0: no totally singular subspace
            "QMINUS2_2": ("GF 2 1", 2, "quadratic -"),
            "QO1_3": ("GF 3 1", 1, "quadratic o"),
            "HERMITIAN1_4": ("GF 2 2", 1, "hermitian"),
        }
        for key, (field, dim, form) in files.items():
            (tmp_path / key).write_text(
                f"{field}\ndim {dim}\nform {form}\ngen\n" + "".join(
                    " ".join("1" if j == i else "0" for j in range(dim))
                    + "\n" for i in range(dim)))
        argv = [str(tmp_path / a) if a in files else a for a in argv]
        out = str(tmp_path / "out.grp")
        assert main(["build-action", *argv, "--out", out]) == 2
        _out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and "concatenate" not in err

    @pytest.mark.parametrize("cap", ["0", "-1"])
    @pytest.mark.parametrize("command", ["check", "verify"])
    def test_cap_below_1_is_refused_at_parsing(self, alt5_file, capsys,
                                               command, cap):
        assert main([command, "--group", alt5_file, "--cap", cap]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"regcycles {command}: error: argument --cap: must "
                       f"be at least 1, got {cap}\n")

    @staticmethod
    def _group_file_argv(command, path):
        if command == "compare":
            return ["compare", "--action1", path, "--action2", path,
                    "--samples", "1"]
        return [command, "--group", path]

    @pytest.mark.parametrize("command", ["verify", "check", "compare"])
    def test_group_file_degree_past_the_cap(self, tmp_path, capsys,
                                            command):
        # refused at the header line, before `degree` images are listed
        path = tmp_path / "big.grp"
        degree = perm.DEFAULT_DOMAIN_CAP + 1
        path.write_text(f"degree {degree}\n(1 2)\n")
        assert main(self._group_file_argv(command, str(path))) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {path}: line 1: degree {degree} exceeds "
                       f"the domain cap {perm.DEFAULT_DOMAIN_CAP}\n")

    @pytest.mark.parametrize("command", ["verify", "check", "compare"])
    def test_group_file_degree_past_the_integer_digit_limit(
            self, tmp_path, capsys, command):
        # past the 4300 digits int() converts, and the zeros in front of
        # the cap are not digits of the degree; the message shows the
        # first 20 digits and the count
        path = tmp_path / "huge.grp"
        path.write_text(f"degree {'9' * 5000}\n(1 2)\n")
        assert main(self._group_file_argv(command, str(path))) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {path}: line 1: degree {'9' * 20}... (5000 "
                       f"characters) exceeds the domain cap "
                       f"{perm.DEFAULT_DOMAIN_CAP}\n")
        path.write_text(f"degree {'0' * 5000}{perm.DEFAULT_DOMAIN_CAP}\n"
                        "(1 2)\n")
        assert main(self._group_file_argv(command, str(path))) == 0

    @pytest.mark.parametrize("command", ["verify", "check", "compare"])
    def test_group_file_degree_at_the_cap_is_accepted(self, tmp_path,
                                                      capsys, command):
        path = tmp_path / "cap.grp"
        path.write_text(f"degree {perm.DEFAULT_DOMAIN_CAP}\n(1 2)\n")
        assert main(self._group_file_argv(command, str(path))) == 0
        _out, err = capsys.readouterr()
        assert err == ""

    def test_ksets_past_the_cap_write_no_file(self, tmp_path, capsys):
        # C(183, 3) = 1,004,731 is refused before any subset is listed
        out = tmp_path / "out.grp"
        start = time.perf_counter()
        assert main(["build-action", "--type", "ksets", "--m", "183", "--k",
                     "3", "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1
        _out, err = capsys.readouterr()
        assert err == (f"error: domain size {math.comb(183, 3)} exceeds cap "
                       f"{perm.DEFAULT_DOMAIN_CAP}\n")
        assert list(tmp_path.iterdir()) == []

    def test_ksets_without_m_names_only_m(self, tmp_path, capsys):
        # --k defaults to 1, so only a missing --m stops ksets
        assert main(["build-action", "--type", "ksets", "--k", "2",
                     "--out", str(tmp_path / "out.grp")]) == 2
        assert capsys.readouterr() == ("", "error: --type ksets needs --m\n")
        assert list(tmp_path.iterdir()) == []

    def test_no_option_raises_the_domain_cap(self, tmp_path, capsys):
        # every group file build-action writes is one the readers accept
        start = time.perf_counter()
        assert main(["build-action", "--type", "ksets", "--m", "183", "--k",
                     "3", "--domain-cap", "2000000",
                     "--out", str(tmp_path / "out.grp")]) == 2
        assert time.perf_counter() - start < 1
        _out, err = capsys.readouterr()
        assert "unrecognized arguments: --domain-cap" in err
        assert list(tmp_path.iterdir()) == []

    def test_pair_domains_past_the_cap(self, tmp_path, capsys):
        # 2**19 vectors are within the vector enumeration cap, but GF(2)^19
        # has about 9.2e10 2-subspaces: refused while they are counted, not
        # when their index array fails to allocate
        path = tmp_path / "trivial19.mat"
        path.write_text("GF 2 1\ndim 19\nform trivial\ngen\n" + "".join(
            " ".join("1" if j == i else "0" for j in range(19)) + "\n"
            for i in range(19)))
        start = time.perf_counter()
        assert main(["build-action", "--type", "pairs-le", "--k", "2",
                     "--matrix", str(path),
                     "--out", str(tmp_path / "out.grp")]) == 2
        assert time.perf_counter() - start < 1
        _out, err = capsys.readouterr()
        assert err == ("error: 2-subspace enumeration exceeds the domain cap "
                       f"{perm.DEFAULT_DOMAIN_CAP}\n")

    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 256. GiB for an array with shape "
                     "(17179869184, 2) and data type int64"),
         "Unable to allocate 256. GiB for an array with shape "
         "(17179869184, 2) and data type int64"),
        (MemoryError(), "MemoryError")], ids=["numpy", "bare"])
    def test_memory_error_ends_in_one_line(self, tmp_path, capsys,
                                           monkeypatch, exc, line):
        def exhausted(m, k):
            raise exc

        monkeypatch.setattr(geometry, "k_set_action", exhausted)
        assert main(["build-action", "--type", "ksets", "--m", "5", "--k",
                     "2", "--out", str(tmp_path / "out.grp")]) == 2
        assert capsys.readouterr().err == f"error: {line}\n"

    def test_ksets_are_refused_before_they_are_listed(self, tmp_path, capsys):
        # C(40, 20) is about 1.4e11 subsets
        start = time.perf_counter()
        assert main(["build-action", "--type", "ksets", "--m", "40", "--k",
                     "20", "--out", str(tmp_path / "out.grp")]) == 2
        assert time.perf_counter() - start < 1
        _out, err = capsys.readouterr()
        assert err == (f"error: domain size {math.comb(40, 20)} exceeds cap "
                       f"{perm.DEFAULT_DOMAIN_CAP}\n")

    @pytest.mark.parametrize("m, r, message", [
        (3000000, 1, "degree 3000000 exceeds the domain cap"),
        (3, 16000000, "domain size 3**16000000 exceeds cap")],
        ids=["3000000-1", "3-16000000"])
    def test_products_are_refused_before_they_are_built(self, tmp_path,
                                                        capsys, m, r,
                                                        message):
        # Sym(m) is never built, and 3**16000000 never formed
        start = time.perf_counter()
        assert main(["build-action", "--type", "product", "--m", str(m),
                     "--r", str(r), "--out", str(tmp_path / "out.grp")]) == 2
        assert time.perf_counter() - start < 1
        _out, err = capsys.readouterr()
        assert err == f"error: {message} {perm.DEFAULT_DOMAIN_CAP}\n"

    def test_one_point_products_are_refused_past_the_cap_bit_length(
            self, tmp_path, capsys):
        # 1**r = 1 is within every cap, but the one r-tuple has r entries
        out = str(tmp_path / "out.grp")
        start = time.perf_counter()
        assert main(["build-action", "--type", "product", "--m", "1",
                     "--r", "400000", "--out", out]) == 2
        assert time.perf_counter() - start < 1
        _out, err = capsys.readouterr()
        max_r = perm.DEFAULT_DOMAIN_CAP.bit_length()
        assert err == (f"error: r = 400000 exceeds {max_r}, the most "
                       f"coordinates within the domain cap "
                       f"{perm.DEFAULT_DOMAIN_CAP}\n")
        assert main(["build-action", "--type", "product", "--m", "1",
                     "--r", str(max_r), "--out", out]) == 0

    @pytest.mark.parametrize("dim", [21, 100000, 10**50])
    def test_huge_dimensions_are_refused_at_the_dim_line(self, tmp_path,
                                                         capsys, dim):
        # no (dim, dim) Gram matrix is built: 18.6 GiB at dim 100000
        path = tmp_path / "huge.mat"
        path.write_text(f"GF 2 1\ndim {dim}\nform trivial\n")
        start = time.perf_counter()
        assert main(["build-action", "--type", "singular-points",
                     "--matrix", str(path),
                     "--out", str(tmp_path / "out.grp")]) == 2
        assert time.perf_counter() - start < 1
        _out, err = capsys.readouterr()
        assert err == (f"error: {path}: line 2: dim {dim} over GF(2) exceeds "
                       f"the vector enumeration cap "
                       f"{geometry.VECTOR_ENUM_CAP}\n")

    @pytest.mark.parametrize("header", ["GF 3 4000000",
                                        f"GF {10**4000 + 1} 1"],
                             ids=["large-e", "large-p"])
    def test_oversized_fields_are_refused_first(self, tmp_path, capsys,
                                                header):
        # neither p**e nor a primality test of p is computed
        path = tmp_path / "big.mat"
        path.write_text(f"{header}\ndim 2\nform trivial\ngen\n1 0\n0 1\n")
        start = time.perf_counter()
        assert main(["build-action", "--type", "singular-points",
                     "--matrix", str(path),
                     "--out", str(tmp_path / "out.grp")]) == 2
        assert time.perf_counter() - start < 1
        _out, err = capsys.readouterr()
        assert err == (f"error: {path}: line 1: field order exceeds cap "
                       f"{geometry.FIELD_CAP}\n")


# small values build at most C(8, 4) = 70 k-sets or 8**4 = 4,096 r-tuples;
# the others are past the domain cap, or past its bit length as k or r
_PAST_THE_CAP = [perm.DEFAULT_DOMAIN_CAP + 1, 3 * 10**6, 10**100]
_M = st.one_of(st.integers(-1, 8), st.sampled_from(_PAST_THE_CAP))
_K_OR_R = st.one_of(st.integers(-1, 4),
                    st.sampled_from([21, 400000, 16000000, 10**50]))


class TestNondegeneratePointOrbits:
    @pytest.mark.parametrize("builtin, name", [
        ("o8p_2", "ns1[quadratic,8,2]"), ("su5_2", "ns1[hermitian,5,2]")])
    def test_minus_on_a_single_orbit_is_refused(self, tmp_path, capsys,
                                                builtin, name):
        out = tmp_path / "ns1.grp"
        assert main(["build-action", "--builtin", builtin, "--type", "ns1",
                     "--orbit", "minus", "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err == f"error: --orbit minus: {name} is a single orbit\n"
        assert not out.exists()

    @pytest.mark.parametrize("builtin, orbit, degree", [
        ("o8p_2", "plus", 120), ("su5_2", "plus", 176),
        ("o7_3", "plus", 378), ("o7_3", "minus", 351)])
    def test_an_orbit_that_exists_is_built(self, tmp_path, builtin, orbit,
                                           degree):
        out = tmp_path / "ns1.grp"
        assert main(["build-action", "--builtin", builtin, "--type", "ns1",
                     "--orbit", orbit, "--out", str(out)]) == 0
        assert perm.parse_group_file(out.read_text()).degree == degree


class TestBuildActionArguments:
    @given(st.sampled_from(["ksets", "product"]), _M, _K_OR_R)
    @settings(max_examples=50)
    def test_builds_or_refuses_in_one_line(self, kind, m, size):
        flag = "--k" if kind == "ksets" else "--r"
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.grp"
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(["build-action", "--type", kind, "--m", str(m),
                             flag, str(size), "--out", str(path)])
            assert time.perf_counter() - start < 1
            assert code in (0, 2)
            if code == 0:
                assert err.getvalue() == "" and path.exists()
            else:
                assert err.getvalue().startswith("error: ")
                assert err.getvalue().count("\n") == 1
                assert "Traceback" not in err.getvalue()
                assert not path.exists()


# certify arguments: q small (most not prime powers), the Mersenne primes
# 2**61 - 1 and 2**127 - 1, or 10**30; n small, or with q**n past the cap
_CERTIFY_N = st.one_of(st.integers(2, 60), st.integers(10**3, 10**12))
_CERTIFY_Q = st.one_of(st.integers(-2, 64),
                       st.sampled_from([2**61 - 1, 2**127 - 1, 10**30]))


def _past_the_cap_examples(test):
    """The `_PAST_THE_QN_CAP` vectors as explicit (case, family, n, q)
    draws."""
    for argv in _PAST_THE_QN_CAP:
        test = example(argv[1], argv[3], int(argv[5]), int(argv[7]))(test)
    return test


class TestCertifyArguments:
    @given(st.sampled_from(["i", "ii", "iii", "iv", "vi", "triality"]),
           st.one_of(st.none(), st.sampled_from(bounds.FAMILIES)),
           _CERTIFY_N, _CERTIFY_Q)
    @_past_the_cap_examples
    @settings(max_examples=42)
    def test_reports_or_refuses_in_one_line(self, case, family, n, q):
        argv = ["certify", "--case", case, "--n", str(n), "--q", str(q)]
        if family is not None:
            argv += ["--family", family]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert time.perf_counter() - start < 2
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1
            assert "Traceback" not in err.getvalue()
        else:
            assert err.getvalue() == ""
            assert f" case {case}: " in out.getvalue().splitlines()[0]


# group-file texts on d <= 8 points: a `degree` header that is right,
# zero-padded, 0, past the cap, junk or missing; generator lines that are
# permutations of the d points, or cycles with points out of range,
# repeated or alone; comments anywhere
_BAD_HEADER = st.sampled_from([
    "degree 0", f"degree {perm.DEFAULT_DOMAIN_CAP + 1}", f"degree {10**100}",
    "degree", "degree x", "degree -3", "degree 4 5", "degre 4", "(1 2)"])
_BAD_CYCLES = st.one_of(
    st.lists(st.integers(-1, 10), max_size=4).map(
        lambda points: "(" + " ".join(map(str, points)) + ")"),
    st.sampled_from(["(1 1)", "(3)", "(1 2)(2 3)", "(1 2", "x", "(1,2)"]))
_COMMENT = st.sampled_from(["", "  # comment", "#"])


def _cycles(d):
    """Cycle text: a permutation of d points (two draws in three), or bad."""
    good = st.permutations(range(d)).map(perm.cycle_string)
    return st.one_of(good, good, _BAD_CYCLES)


def _group_text(d):
    header = st.sampled_from([f"degree {d}", f"degree 00{d}"])
    return st.builds(
        lambda first, head, gens: "".join(
            [first + "\n", head + "\n"] + [g + c + "\n" for g, c in gens]),
        _COMMENT, st.one_of(header, header, _BAD_HEADER),
        st.lists(st.tuples(_cycles(d), _COMMENT), max_size=3))


class TestGroupFileArguments:
    @given(st.integers(1, 8).flatmap(lambda d: st.tuples(
        _group_text(d), st.one_of(st.none(), _cycles(d)))),
           st.sampled_from(["verify", "check", "compare"]))
    @settings(max_examples=80)
    def test_reports_or_refuses_in_one_line(self, case, command):
        text, element = case
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "g.grp")
            Path(path).write_text(text, encoding="utf-8")
            if command == "compare":
                argv = ["compare", "--action1", path, "--action2", path,
                        "--samples", "20"]
            else:
                argv = [command, "--group", path]
            if command == "check" and element is not None:
                argv += ["--element", element]
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main([*argv, "--json"])
            assert time.perf_counter() - start < 2
        assert code in (0, 1, 2)
        out, err = out.getvalue(), err.getvalue()
        if code == 2:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "Traceback" not in err
            # the file, --element, or (compare) the two actions
            assert path in err or "--element" in err \
                or (command == "compare" and "actions" in err)
        else:
            assert err == ""
            assert isinstance(json.loads(out), dict)


# integer tokens the formats refuse: past int()'s 4300 digits, signed,
# underscored, not ASCII digits, not a number
_BAD_INT = st.sampled_from(["9" * 5000, "+1", "-1", "1_0", "\u0662", "x"])
_MATRIX_TYPES = ["singular-points", "ns1", "aniso2", "maxts", "forms",
                 "pairs-le", "pairs-perp"]


@st.composite
def _matrix_text(draw):
    """A matrix file of dim n <= 4 over GF(2), GF(3) or GF(4) with up to
    three permutation-matrix generators: right in three draws of eight,
    else with one flaw: a bad header line, a refused integer as an entry
    or twist, a random (often singular) generator, or its last line cut."""
    p, e, modulus = draw(st.sampled_from(
        [(2, 1, ""), (3, 1, ""), (2, 2, ""), (2, 2, " 1 1 1")]))
    q, n, bad = p**e, draw(st.integers(1, 4)), draw(_BAD_INT)
    forms = (["trivial"] + ["hermitian"] * (e == 2)
             + ["symplectic", "quadratic +", "quadratic -"] * (n % 2 == 0)
             + ["quadratic o"] * (n % 2 == 1 and p == 3))
    lines = [f"GF {p} {e}{modulus}", f"dim {n}",
             "form " + draw(st.sampled_from(forms))]
    for images in draw(st.lists(st.permutations(range(n)), min_size=1,
                                max_size=3)):
        lines += ["gen"] + [" ".join(str(int(j == i)) for j in range(n))
                            for i in images]
        lines += draw(st.sampled_from([[], [], ["duality"], ["twist 1"]]))
    flaw = draw(st.sampled_from([None, None, None, "header", "entry",
                                 "twist", "random", "cut"]))
    if flaw == "header":
        i, line = draw(st.sampled_from([
            (0, f"GF {bad} {e}"), (0, f"GF {p} {e} 1 {bad} 1"), (0, "GF 2"),
            (0, "GF 509 2"), (1, f"dim {bad}"), (1, "dim 0"), (1, "dim 21"),
            (2, "form bogus"), (2, "form symplectic")]))
        lines[i] = line
    elif flaw == "entry":
        lines[4] = " ".join([bad] + lines[4].split()[1:])
    elif flaw == "twist":
        lines.append(f"twist {bad}")
    elif flaw == "random":
        square = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
        lines += ["gen"] + [" ".join(map(str, row)) for row in
                            draw(st.lists(square, min_size=n, max_size=n))]
    elif flaw == "cut":
        lines.pop()
    return "\n".join(lines) + "\n"


# tables texts: entries of known and unknown groups that are right, or
# whose fields are integers, over-long integers, other JSON values or
# missing halves of a pair; entries that are not objects; JSON that is not
# JSON
_TABLE_FIELD = st.tuples(
    st.sampled_from(["max_order", "min_degree", "iota_num", "iota_den",
                     "amended_fpr_num", "amended_fpr_den"]),
    st.sampled_from(["1", "7", "0", "-3", "1000000", "9" * 5000,
                     "-" + "9" * 5000, "2.5", "1e400", '"7"', "true",
                     "null", "[]"]))
_GOOD_ENTRY = st.sampled_from([
    "{}", '{"max_order": 7}', '{"min_degree": 100, "iota_num": 1, '
    '"iota_den": 3}', '{"amended_fpr_num": 1, "amended_fpr_den": 4}'])
_TABLE_ENTRY = st.one_of(
    _GOOD_ENTRY, _GOOD_ENTRY,
    st.lists(_TABLE_FIELD, max_size=4).map(lambda fields: "{" + ", ".join(
        f'"{name}": {value}' for name, value in fields) + "}"),
    st.sampled_from(["5", "[]", '"x"']))
_TABLES_TEXT = st.one_of(
    st.lists(st.tuples(st.sampled_from(["PSL:2:7", "PSp:6:2", "PSL:6:11",
                                        "POmega-:8:11", "junk"]),
                       _TABLE_ENTRY), max_size=3).map(
        lambda entries: "{" + ", ".join(
            f'"{key}": {entry}' for key, entry in entries) + "}"),
    st.sampled_from(["", "{", "[1]", "9" * 5000, '{"a": 1e400}']))


def _run_in_one_line(argv):
    """(exit code, stdout, stderr) of main(argv), which must end within
    2 s in exit 0, or in exit 2 with one plain `error:` line."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 2
    assert code in (0, 2)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == ""
    else:
        assert out == "" and err.startswith("error: ")
        assert err.count("\n") == 1 and len(err) < 200
        assert "Traceback" not in err and "set_int_max_str_digits" not in err
    return code, out, err


class TestMatrixFileArguments:
    @given(_matrix_text(), st.sampled_from(_MATRIX_TYPES))
    @settings(max_examples=80)
    def test_builds_or_refuses_in_one_line(self, text, kind):
        try:
            geometry.parse_matrix_file(text)
            malformed = False
        except perm.GroupFileError:
            malformed = True
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "g.mat", Path(tmp) / "out.grp"
            path.write_text(text, encoding="utf-8")
            code, _, err = _run_in_one_line(
                ["build-action", "--type", kind, "--matrix", str(path),
                 "--out", str(out)])
            assert out.exists() == (code == 0)
        # a malformed file is named with its line; a well-formed one is
        # built, or refused for the action asked of it
        assert code == 2 or not malformed
        if malformed:
            assert err.startswith(f"error: {path}: line ")


class TestScanTablesArguments:
    @given(_TABLES_TEXT, st.sampled_from(["small-dim", "nonsubspace",
                                          "dagger"]))
    @settings(max_examples=60)
    def test_reads_or_refuses_in_one_line(self, text, theorem):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "tables.json"
            path.write_text(text, encoding="utf-8")
            code, out, err = _run_in_one_line(
                ["scan", "--theorem", theorem, "--tables", str(path)])
        if code == 0:
            assert out.endswith(" flagged\n")
        else:
            assert err.startswith(f"error: {path}: bad external tables: ")


class TestFileIntegers:
    """An integer field of either file format past int()'s 4300 digits,
    or a token int() would take though the format does not (a sign, '_',
    another script's digit), ends in one plain line naming the file and
    its line."""

    LONG = "9" * 5000
    SHOWN = f"{'9' * 20}... (5000 characters)"
    GEN = "gen\n1 0\n0 1\n"

    @pytest.mark.parametrize("name, text, line, message", [
        ("g.grp", f"degree {LONG}\n(1 2)\n", 1,
         f"degree {SHOWN} exceeds the domain cap {perm.DEFAULT_DOMAIN_CAP}"),
        ("g.grp", f"degree 3\n(1 {LONG})\n", 2,
         f"point {SHOWN} out of range 1..3"),
        ("g.grp", "degree 30\n(1 2_0)\n", 2,
         "expected an integer, got '2_0'"),
        ("g.grp", "degree 3\n\n(1 +2)\n", 3, "expected an integer, got '+2'"),
        ("g.grp", "degree 3\n(1 \u0662)\n", 2,
         "expected an integer, got '\u0662'"),
        ("m.mat", f"GF {LONG} 1\ndim 2\nform trivial\n{GEN}", 1,
         f"field order exceeds cap {geometry.FIELD_CAP}"),
        ("m.mat", f"GF 2 2 1 {LONG} 1\ndim 2\nform trivial\n{GEN}", 1,
         f"integer {SHOWN} is too long"),
        ("m.mat", f"GF 2 1\ndim {LONG}\nform trivial\n{GEN}", 2,
         f"dim {SHOWN} over GF(2) exceeds the vector enumeration cap "
         f"{geometry.VECTOR_ENUM_CAP}"),
        ("m.mat", f"GF 2 1\ndim 2\nform trivial\ngen\n1 0\n0 {LONG}\n",
         6, "entry out of range 0..1"),
        ("m.mat", f"GF 2 2\ndim 2\nform trivial\n{GEN}twist {LONG}\n", 7,
         f"integer {SHOWN} is too long"),
        ("m.mat", "GF 3 1\ndim 2\nform trivial\ngen\n1 0\n0 2_0\n", 6,
         "non-integer entry"),
        ("m.mat", "GF 3 1\ndim 2\nform trivial\ngen\n+2 0\n0 1\n", 5,
         "non-integer entry"),
        ("m.mat", "GF 3 1\ndim 2\nform trivial\ngen\n\u0662 0\n0 1\n", 5,
         "non-integer entry"),
    ], ids=["degree", "point", "underscore-point", "signed-point",
            "arabic-point", "p", "modulus", "dim", "entry", "twist",
            "underscore-entry", "signed-entry", "arabic-entry"])
    def test_one_plain_line_names_the_file_and_line(self, tmp_path, name,
                                                    text, line, message):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        if name == "g.grp":
            argv = ["verify", "--group", str(path)]
        else:
            argv = ["build-action", "--type", "singular-points", "--matrix",
                    str(path), "--out", str(tmp_path / "out.grp")]
        code, _, err = _run_in_one_line(argv)
        assert code == 2
        assert err == f"error: {path}: line {line}: {message}\n"

    @pytest.mark.parametrize("token, message", [
        ("2_0", "expected an integer, got '2_0'"),
        ("+2", "expected an integer, got '+2'"),
        ("\u0662", "expected an integer, got '\u0662'"),
        (LONG, f"point {SHOWN} out of range 1..8")],
        ids=["underscore", "signed", "arabic", "long"])
    def test_element_tokens(self, alt8_file, token, message):
        code, _, err = _run_in_one_line(
            ["check", "--group", alt8_file, "--element", f"(1 {token})"])
        assert code == 2
        assert err == f"error: bad --element: {message}\n"


class TestCompare:
    def test_monotone_pair(self, tmp_path, capsys):
        # Sym(5) on points vs on 2-sets: the point character is contained
        # in the 2-set character, so regular-cycle counts are monotone
        a1 = tmp_path / "a1.grp"
        a2 = tmp_path / "a2.grp"
        main(["build-action", "--type", "ksets", "--m", "5", "--k", "1",
              "--out", str(a1)])
        main(["build-action", "--type", "ksets", "--m", "5", "--k", "2",
              "--out", str(a2)])
        capsys.readouterr()  # drop the build-action status lines
        code = main(["compare", "--action1", str(a1), "--action2",
                     str(a2), "--samples", "300", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["monotone"] is True
        assert data["samples"] == 300

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_below_one_are_refused(self, tmp_path, capsys, samples):
        a1 = tmp_path / "a1.grp"
        a1.write_text(perm.emit_group_file(perm.symmetric_group(4)))
        assert main(["compare", "--action1", str(a1), "--action2", str(a1),
                     "--samples", samples, "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_mismatched_generators(self, tmp_path, capsys):
        # 1 and 2 generators: the one refusal, compare_actions_monotonic's
        a1 = tmp_path / "a1.grp"
        a1.write_text(perm.emit_group_file(cyclic_group(4)))
        a2 = tmp_path / "a2.grp"
        a2.write_text(perm.emit_group_file(perm.symmetric_group(4)))
        assert main(["compare", "--action1", str(a1),
                     "--action2", str(a2)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: the two actions list different numbers of "
                       "generators and cannot be compared word-by-word\n")

    def test_group_option_is_gone(self, tmp_path, capsys):
        a1 = tmp_path / "a1.grp"
        a1.write_text(perm.emit_group_file(perm.symmetric_group(4)))
        assert main(["compare", "--action1", str(a1), "--action2", str(a1),
                     "--group", "x"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("regcycles: error: unrecognized arguments: "
                       "--group x\n")

    def test_text_says_when_sampling_stopped(self, tmp_path, capsys):
        # Sym(8) on 3-sets against 2-sets at seed 7 reads 283 of the
        # 3,000 words requested, then stops at the fifth violation; the
        # JSON still carries the words requested
        a1, a2 = tmp_path / "a1.grp", tmp_path / "a2.grp"
        a1.write_text(perm.emit_group_file(geometry.k_set_action(8, 3)))
        a2.write_text(perm.emit_group_file(geometry.k_set_action(8, 2)))
        argv = ["compare", "--action1", str(a1), "--action2", str(a2),
                "--samples", "3000", "--seed", "7"]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("sampling stopped at the fifth violation "
                            "(3000 words requested): VIOLATIONS")
        assert len(lines) == 6
        assert all(line.startswith("  violating word: g")
                   for line in lines[1:])
        assert main(argv + ["--json"]) == 1
        report = regcycle.compare_actions_monotonic(
            geometry.k_set_action(8, 3), geometry.k_set_action(8, 2),
            samples=3000, seed=7)
        assert capsys.readouterr().out == json.dumps(
            report.to_json_dict(), sort_keys=True) + "\n"
        assert report.to_json_dict()["schema"] == 1
        assert report.samples == 3000 and len(report.violations) == 5
        # fewer than five violations: the words requested were all read
        assert main(["compare", "--action1", str(a2), "--action2", str(a2),
                     "--samples", "300"]) == 0
        assert capsys.readouterr().out == "300 sampled words: monotone\n"

    def test_generator_less_actions_are_refused(self, tmp_path, capsys):
        a1 = tmp_path / "a1.grp"
        a1.write_text("degree 3\n")
        assert main(["compare", "--action1", str(a1), "--action2",
                     str(a1)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "generators" in err
        assert "Traceback" not in err


class TestParserReuse:
    def test_bad_argv_leaves_later_calls_unchanged(self, alt8_file, capsys):
        valid = [["verify", "--group", alt8_file, "--json"],
                 ["certify", "--case", "ii", "--family", "POmega-",
                  "--n", "8", "--q", "11", "--json"]]

        def run_valid():
            results = []
            for argv in valid:
                code = main(argv)
                results.append((code, capsys.readouterr()))
            return results

        cli._build_parser.cache_clear()
        fresh = run_valid()
        assert main(["certify", "--json", "--case", "ii", "--n", "8"]) == 2
        assert main(["verify", "--group", alt8_file, "--bogus"]) == 2
        capsys.readouterr()
        assert run_valid() == fresh
        assert [code for code, _ in fresh] == [1, 0]
        assert cli._build_parser() is cli._build_parser()


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["scan", "--theorem", "dagger", "--bogus"]) == 2
