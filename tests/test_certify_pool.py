"""Every entry of the benchmark's certify pool keeps its recorded verdict,
and the certify and scan reports keep their bytes."""

import hashlib
import importlib.util
import json
from pathlib import Path

from regcycles.cli import main

# SHA-256 of the `certify --json` stdout of every pool entry, in pool order,
# and of the `scan --json` stdout of the three theorems, in the order below
CERTIFY_SHA256 = \
    "171e8afe8a10051fc15979a55e3619be17bdde540be644f68f1066c90ba7eb1e"
SCAN_SHA256 = \
    "91bb7c5ed84df0f06dc3ab1f2fb3213ac1793fe948cea6708944e66b81d3ffb0"


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
    digest = hashlib.sha256()
    for entry in entries:
        # the 37 entries recorded as raising OverflowError are case vi with
        # q**(2m) past the factorization cap, which _ppd_count_bound covers
        assert entry["verdict"] or entry["raises"] == "OverflowError"
        expected = entry["verdict"] or "certified"
        code = main(pool.argv(entry))
        out, err = capsys.readouterr()
        digest.update(out.encode())
        got = json.loads(out)["verdict"] if out else err
        if (got, code) != (expected, 0 if expected == "certified" else 1):
            wrong.append((pool.argv(entry), code, got))
    assert wrong == []
    assert digest.hexdigest() == CERTIFY_SHA256


def test_scan_reports_keep_their_bytes(capsys):
    digest = hashlib.sha256()
    for theorem in ("small-dim", "nonsubspace", "dagger"):
        assert main(["scan", "--theorem", theorem, "--json"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == SCAN_SHA256
