"""End-to-end tests of the command-line interface.

Each test drives main(argv) directly and asserts on the exit code and the
captured streams; a few do full build -> verify round trips through the
on-disk file formats.
"""

import json

import pytest

from regcycles import perm
from regcycles.cli import main


@pytest.fixture
def alt8_file(tmp_path):
    path = tmp_path / "alt8.grp"
    path.write_text(perm.emit_group_file(perm.alternating_group(8)))
    return str(path)


@pytest.fixture
def alt5_file(tmp_path):
    path = tmp_path / "alt5.grp"
    path.write_text(perm.emit_group_file(perm.alternating_group(5)))
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

    def test_tables_file(self, tmp_path, capsys):
        tables = tmp_path / "tables.json"
        tables.write_text('{"PSp:6:2": {"max_order": 3}}')
        code = main(["certify", "--case", "iii", "--family", "PSp",
                     "--n", "6", "--q", "2", "--tables", str(tables)])
        assert code == 0


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
        assert G.order() == 120
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
        assert G.order() == 72

    def test_builtin_singular_points(self, tmp_path, capsys):
        out = tmp_path / "sp62.grp"
        code = main(["build-action", "--type", "singular-points",
                     "--builtin", "sp6_2", "--out", str(out)])
        assert code == 0
        G = perm.parse_group_file(out.read_text())
        assert G.degree == 63
        assert G.order() == 1451520

    def test_forms_domain(self, tmp_path):
        out = tmp_path / "sp62_forms.grp"
        assert main(["build-action", "--type", "forms", "--builtin",
                     "sp6_2", "--epsilon", "-", "--out", str(out)]) == 0
        G = perm.parse_group_file(out.read_text())
        assert G.degree == 28

    def test_needs_matrix_source(self, capsys):
        assert main(["build-action", "--type", "maxts",
                     "--out", "/tmp/x.grp"]) == 2

    def test_unknown_builtin(self, capsys):
        assert main(["build-action", "--type", "maxts", "--builtin",
                     "nope", "--out", "/tmp/x.grp"]) == 2


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

    def test_mismatched_generators(self, tmp_path, capsys):
        a1 = tmp_path / "a1.grp"
        a1.write_text(perm.emit_group_file(perm.cyclic_group(4)))
        a2 = tmp_path / "a2.grp"
        a2.write_text(perm.emit_group_file(perm.symmetric_group(4)))
        assert main(["compare", "--action1", str(a1),
                     "--action2", str(a2)]) == 2


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["scan", "--theorem", "dagger", "--bogus"]) == 2
