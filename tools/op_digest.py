"""Digest of what every benchmark operation writes, at one seed.

Runs each operation of the perfbench workloads once, in this process and in
a temporary directory, and writes one JSON document holding, per operation,
its exit code, the SHA-256 of every file it wrote except its run manifest,
and that run manifest without ``wall_time_s``; the workloads' prepared input
files are hashed too.  ``--against`` compares with an earlier digest, prints
each key whose value differs and exits 1 if any does.

    python tools/op_digest.py --seed 0 --out before.json
    python tools/op_digest.py --seed 0 --out after.json --against before.json
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from mtsurf.cli import main  # noqa: E402


def _files(directory, manifest=None):
    """{name: SHA-256} of the files in ``directory``; the file named
    ``manifest`` is parsed and kept without its ``wall_time_s``."""
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            raw = fh.read()
        if name == manifest:
            out[name] = {k: v for k, v in json.loads(raw).items() if k != "wall_time_s"}
        else:
            out[name] = hashlib.sha256(raw).hexdigest()
    return out


def digest(seed):
    p = workloads.params(seed)
    ops = {}
    with tempfile.TemporaryDirectory(prefix="op-digest-") as tmp:
        for workload in workloads.WORKLOADS:
            inputs = os.path.join(tmp, workload, "inputs")
            os.makedirs(inputs)
            workloads.prepare(workload, p, inputs)
            ops[workload + "/inputs"] = _files(inputs)
            for name, argv in workloads.operations(workload, p, inputs):
                out = os.path.join(tmp, workload, name)
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = main(argv + ["--out", out, "--name", "run"])
                ops["%s/%s" % (workload, name)] = {
                    "exit_code": rc, "files": _files(out, manifest="run.manifest.json")}
    return {"seed": seed, "operations": ops}


def _flat(obj, prefix=""):
    """{dotted key: leaf value} of nested dicts and lists."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return {prefix: obj}
    out = {}
    for k, v in items:
        out.update(_flat(v, "%s.%s" % (prefix, k) if prefix else str(k)))
    return out


def main_digest(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True, help="digest JSON to write")
    ap.add_argument("--against", help="earlier digest to compare with")
    args = ap.parse_args(argv)
    doc = digest(args.seed)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    if args.against is None:
        return 0
    with open(args.against) as fh:
        old, new = _flat(json.load(fh)), _flat(doc)
    pairs = {k: (old.get(k, "<absent>"), new.get(k, "<absent>")) for k in old.keys() | new.keys()}
    differ = sorted(k for k, (a, b) in pairs.items() if a != b)
    for key in differ:
        print("%s: %r -> %r" % ((key,) + pairs[key]))
    print("%d key(s) differ" % len(differ))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main_digest())
