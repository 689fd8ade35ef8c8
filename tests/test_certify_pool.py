"""Every entry of the benchmark's certify pool keeps its recorded verdict."""

import importlib.util
import json
from pathlib import Path

from regcycles.cli import main


def load_pool_module():
    path = Path(__file__).parents[1] / "perfbench" / "certify_pool.py"
    spec = importlib.util.spec_from_file_location("perfbench_certify_pool",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_pool_entry_keeps_its_verdict(capsys):
    pool = load_pool_module()
    entries = pool.load()
    assert len(entries) == 932
    wrong = []
    for entry in entries:
        # the 37 entries recorded as raising OverflowError are case vi with
        # q**(2m) past the factorization cap, which _ppd_count_bound covers
        assert entry["verdict"] or entry["raises"] == "OverflowError"
        expected = entry["verdict"] or "certified"
        code = main(pool.argv(entry))
        out, err = capsys.readouterr()
        got = json.loads(out)["verdict"] if out else err
        if (got, code) != (expected, 0 if expected == "certified" else 1):
            wrong.append((pool.argv(entry), code, got))
    assert wrong == []
