"""Behaviour lock: every benchmark operation at seed 0 keeps its exit code
and its checks.

The golden file is what ``tools/op_digest.py`` writes for seed 0.  A change
that alters behaviour rewrites it in its own diff and names each changed
key:

    python tools/op_digest.py --seed 0 --out tests/op_digest_seed0.json

Only what holds across numpy builds and CPUs is compared: each operation's
exit code and, for each check of its run manifest in order, its name, sense,
exact threshold and pass flag, and its value within 1e-3 of its threshold or
1e-9 of itself, whichever is wider (the second covers thresholds of 0 and
known failures far above their caps).  File digests are left to
``tools/op_digest.py --against``, on one platform.
"""

import importlib.util
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "op_digest_seed0.json")


def _portable(doc):
    """{operation: (exit code, [(name, sense, threshold, passed)], [value])}
    of a digest; the prepared inputs, which hold only file digests, are left
    out."""
    out = {}
    for op, entry in doc["operations"].items():
        if "exit_code" in entry:
            checks = entry["files"]["run.manifest.json"]["checks"]
            out[op] = (entry["exit_code"],
                       [(c["name"], c["sense"], c["threshold"], c["passed"]) for c in checks],
                       [c["value"] for c in checks])
    return out


def test_benchmark_operations_keep_exit_codes_and_checks(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))   # op_digest prepends src and perfbench
    spec = importlib.util.spec_from_file_location(
        "op_digest", os.path.join(ROOT, "tools", "op_digest.py"))
    op_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(op_digest)
    with open(GOLDEN) as fh:
        want = _portable(json.load(fh))
    with pytest.warns(UserWarning, match="below the stencil roundoff floor"):
        got = _portable(op_digest.digest(0))
    assert sorted(got) == sorted(want)
    for op, (code, checks, values) in want.items():
        assert got[op][:2] == (code, checks), op
        for (name, _, threshold, _), value, new in zip(checks, values, got[op][2]):
            assert abs(new - value) <= max(1e-3 * threshold, 1e-9 * abs(value)), \
                (op, name, value, new)
