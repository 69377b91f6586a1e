"""mtsurf benchmark: time CLI workloads end to end, or per layer when traced.

Run from the root of a checkout (the directory holding ``src/mtsurf``)::

    python3 perfbench/run.py --workload synth_export --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --all            # every workload, one interpreter each

Each workload runs in this one process: setup (timed in fresh child
interpreters, see :func:`measure_setup`), then passes until ``--seconds``
is used.  A pass drives ``mtsurf.cli.main(argv)`` in-process for each of
the workload's operations, into a temporary directory removed afterwards.
With ``--trace 1`` untraced and traced passes alternate and the per-layer
metrics are printed instead of the end-to-end ones.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import os
import sys

# One BLAS/OpenMP thread, fixed before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import re
import resource
import shutil
import statistics
import subprocess
import tempfile
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 0
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 120

if not os.path.isfile(os.path.join(SRC, "mtsurf", "cli.py")):
    sys.exit("perfbench: no mtsurf sources at %s; run from a checkout root" % SRC)
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# A residual may grow by this factor over its value at the default seed
# before the operation counts as failed, even when it is still under its cap.
RESIDUAL_FACTOR = 100.0
# Residuals below this share of their cap are roundoff and pass the factor test.
RESIDUAL_FLOOR = 1e-4


def _stencil_matrix(n=257):
    from scipy.sparse import diags, identity, kron
    second = diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    return (kron(identity(n), second) + kron(second, identity(n))).tocsr()


_STENCIL = _stencil_matrix()
_STENCIL_X = np.cos(np.arange(_STENCIL.shape[0], dtype=float))


def reference_kernel():
    """Seconds for a fixed job owned by the benchmark: a small CSV round trip
    and a sparse stencil iteration.

    It does the kinds of work a pass does: complex transcendental ufuncs on
    a 129^2 grid, printf-style formatting of the samples into CSV rows, a
    file write and a ``np.loadtxt`` read back, then 60 CG-like steps (a
    5-point matvec on 257^2 nodes, dot products, axpys), which are memory
    bound as the Poisson solve is.  The host's speed drifts by 15-25% over
    minutes; dividing by this kernel's time removes much of it.
    """
    t0 = perf_counter()
    x, r = _STENCIL_X.copy(), _STENCIL_X.copy()
    for _ in range(60):
        y = _STENCIL @ x
        step = 1e-3 * float(r @ r) / (float(x @ y) + float(r @ r))
        r -= step * y
        x += step * r
    u, v = np.meshgrid(np.linspace(-2.0, 2.0, 129), np.linspace(-2.0, 0.0, 129),
                       indexing="ij")
    for _ in range(8):
        z = np.exp(1j * (u + 1j * v)) * np.cosh(u) + np.sin(v) / (2.0 + np.cos(u))
    rows = zip(u.ravel().tolist(), v.ravel().tolist(), z.real.ravel().tolist(),
               z.imag.ravel().tolist())
    path = os.path.join(WORK, "reference-kernel.csv")
    with open(path, "w") as fh:
        fh.write("".join("%.17g,%.17g,%.17g,%.17g\n" % row for row in rows))
    back = np.loadtxt(path, delimiter=",")
    os.remove(path)
    if back.shape != (u.size, 4) or not np.all(np.isfinite(x)):
        raise RuntimeError("reference kernel produced malformed output")
    return perf_counter() - t0


def measure_setup(workload, seed, runs):
    """Median wall seconds to start an interpreter, import mtsurf.cli and
    prepare the workload's inputs; returns (samples, last input directory)."""
    samples, inputs = [], None
    for _ in range(runs):
        if inputs is not None:
            shutil.rmtree(inputs)
        inputs = tempfile.mkdtemp(prefix="inputs-", dir=WORK)
        t0 = perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--workload",
                        workload, "--seed", str(seed), "--prepare", inputs],
                       check=True, timeout=SETUP_TIMEOUT_S)
        samples.append(perf_counter() - t0)
    return samples, inputs


def prepare_only(workload, seed, inputs):
    import mtsurf.cli  # noqa: F401  (counted in set-up time)
    workloads.prepare(workload, workloads.params(seed), inputs)


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def run_operation(main, argv, out_dir):
    """Exit code of one in-process CLI call; output is swallowed."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return main(argv + ["--out", out_dir, "--name", "run"])
        except SystemExit as exc:       # argparse rejected the command line
            return exc.code if isinstance(exc.code, int) else 1


def judge(workload, name, rc, out_dir, reference):
    """(failed, residuals, problems) for one operation.

    An operation fails when it exits non-zero, its manifest does not say
    ``passed: true``, or a residual exceeds its cap or RESIDUAL_FACTOR times
    its value at the default seed.  ``problems`` lists what makes the run
    incorrect: any failure not recorded in KNOWN_FAILURES.
    """
    path = os.path.join(out_dir, "run.manifest.json")
    if not os.path.isfile(path):
        return True, {}, ["%s: no run manifest (exit %s)" % (name, rc)]
    with open(path) as fh:
        manifest = json.load(fh)
    failing = set()
    if rc != 0 or manifest.get("passed") is not True:
        failing.add("exit")
    ref = reference.get(workload, {}).get(name) if reference is not None else {}
    problems = []
    if ref is None:
        problems.append("%s: no reference residuals" % name)
        ref = {}
    residuals = {}
    for check in manifest["checks"]:
        if not check["passed"]:
            failing.add(check["name"])
        if check["sense"] != "max_below":
            continue
        value = check["value"]
        residuals[check["name"]] = value
        seed_value = ref.get(check["name"])
        if reference is not None and seed_value is None:
            problems.append("%s: no reference for %s" % (name, check["name"]))
        elif seed_value is not None:
            limit = RESIDUAL_FACTOR * max(seed_value, RESIDUAL_FLOOR * check["threshold"])
            if not value <= limit:
                failing.add(check["name"])
    checks, pattern = workloads.KNOWN_FAILURES.get((workload, name), (None, None))
    match = pattern and re.search(pattern, manifest.get("error") or "")
    known = checks is not None and failing - {"exit"} <= set(checks) and (
        pattern is None and manifest.get("error") is None or bool(match))
    if failing and not known:
        problems.append("%s failed: %s %s" % (name, ", ".join(sorted(failing)),
                                              manifest.get("error") or ""))
    if match:
        residuals["known_failure"] = float(match.group(1))
    problems += ["%s: %s" % (name, msg) for msg in
                 workloads.check_outputs(workload, name, out_dir, manifest["artifacts"])]
    return bool(failing), residuals, problems


class Workload:
    """One workload's operations and the outcome of its passes."""

    def __init__(self, workload, seed, inputs, reference):
        import mtsurf.cli
        import mtsurf.export  # noqa: F401  (imported lazily by the CLI)

        self.name = workload
        self.p = workloads.params(seed)
        self.ops = workloads.operations(workload, self.p, inputs)
        self.reference = reference
        self.main = mtsurf.cli.main
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.residuals = {}

    def run_pass(self):
        """(wall seconds, bytes written) of one pass; outputs judged after timing."""
        root = tempfile.mkdtemp(prefix="pass-", dir=WORK)
        try:
            results = []
            t0 = perf_counter()
            for name, argv in self.ops:
                out = os.path.join(root, name)
                try:
                    rc = run_operation(self.main, argv, out)
                except Exception:
                    rc = None
                    self.problems.append("%s raised:\n%s" % (name, traceback.format_exc()))
                results.append((name, rc, out))
            elapsed = perf_counter() - t0
            written = _dir_bytes(root)
            for name, rc, out in results:
                self.attempted += 1
                failed, residuals, problems = judge(self.name, name, rc, out,
                                                    self.reference)
                self.failed += failed
                self.problems += problems
                self.residuals[name] = residuals
            return elapsed, written
        finally:
            shutil.rmtree(root)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def report_line(name, values, unit):
    q1, med, q3 = quartiles(values)
    print("  %-24s median %-12.6g q1 %-12.6g q3 %-12.6g n=%-3d %s"
          % (name, med, q1, q3, len(values), unit))
    return med


def measure(bench, seconds, trace):
    """Passes until ``seconds`` are used; returns per-pass samples.

    The reference kernel runs before every pass and once after the last.
    The host switches between fast and slow states within a run, so each
    untraced pass is divided by the mean of the two kernel runs around it;
    ``pass_ref`` holds those ratios.
    """
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    samples = {"pass_s": [], "ref_s": [], "bytes": [], "traced_s": [],
               "layers": [], "spans": []}
    order = []                  # run order of passes: True where traced
    deadline = perf_counter() + seconds
    traced_turn = False
    while True:
        start = perf_counter()
        samples["ref_s"].append(reference_kernel())
        order.append(traced_turn)
        if traced_turn:
            tracer.enabled = True
            try:
                elapsed, _ = bench.run_pass()
            finally:
                tracer.enabled = False
            spans = tracer.take()
            samples["traced_s"].append(elapsed)
            samples["layers"].append(tracing.layer_metrics(spans))
            samples["spans"].append([s[:4] for s in spans])
        else:
            elapsed, written = bench.run_pass()
            samples["pass_s"].append(elapsed)
            samples["bytes"].append(written)
        cost = perf_counter() - start
        traced_turn = trace and not traced_turn
        done = samples["pass_s"] and (not trace or samples["traced_s"])
        if done and perf_counter() + cost > deadline:
            samples["ref_s"].append(reference_kernel())
            break
    refs = samples["ref_s"]
    untraced = [k for k, traced in enumerate(order) if not traced]
    samples["pass_ref"] = [elapsed / (0.5 * (refs[k] + refs[k + 1]))
                           for elapsed, k in zip(samples["pass_s"], untraced)]
    return samples


def run_workload(args):
    os.makedirs(WORK, exist_ok=True)
    reference = None
    if not args.record:
        with open(REFERENCE) as fh:
            reference = json.load(fh)["workloads"]
    setup, inputs = measure_setup(args.workload, args.seed,
                                  1 if args.trace or args.record else SETUP_RUNS)
    try:
        bench = Workload(args.workload, args.seed, inputs, reference)
        samples = measure(bench, args.seconds, args.trace)
    finally:
        shutil.rmtree(inputs)

    print("workload %s  seed %d  params %s" % (
        args.workload, args.seed,
        " ".join("%s=%.4f" % kv for kv in sorted(bench.p.items()))))
    print("  operations %d  failed %d" % (bench.attempted, bench.failed))
    for problem in bench.problems:
        print("  PROBLEM " + problem.replace("\n", "\n    "))
    if args.record:
        return bench
    if args.trace:
        layers = {k: statistics.median(s[k] for s in samples["layers"])
                  for k in samples["layers"][0]}
        layers["host.ref_s"] = statistics.median(samples["ref_s"])
        layers["trace.overhead_frac"] = (statistics.median(samples["traced_s"])
                                        / statistics.median(samples["pass_s"]))
        stress = sum(layers[k] for k in tracing.STRESS[args.workload])
        layers["trace.stress_share"] = stress / statistics.median(samples["traced_s"])
        report_line("traced pass_s", samples["traced_s"], "s")
        for key in tracing.METRICS:
            print("  %-30s %.6g" % (key, layers[key]))
        print("  layer share of %s: %.3f (%s)" % (
            args.workload, layers["trace.stress_share"],
            " + ".join(tracing.STRESS[args.workload])))
        with open(os.path.join(WORK, "spans-%s.json" % args.workload), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "passes": samples["spans"]}, fh)
        metrics = {k: {"value": layers[k], "unit": tracing.unit(k)}
                   for k in tracing.METRICS}
    else:
        setup_s = report_line("setup_s", setup, "s")
        # pass_s is printed but not a gated metric: see README.md.
        report_line("pass_s", samples["pass_s"], "s")
        report_line("host.ref_s", samples["ref_s"], "s")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_ref": {"value": statistics.median(samples["pass_ref"]),
                         "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
            "artifact_mb": {"value": statistics.median(samples["bytes"]) / 1e6,
                            "unit": "MB"},
        }
        report_line("pass_ref", samples["pass_ref"], "ratio")
        for key in ("peak_rss_mb", "artifact_mb"):
            print("  %-24s %-12.6g %s" % (key, metrics[key]["value"], metrics[key]["unit"]))
        print("  %-24s %-12.6g (%d/%d)" % ("failed_frac", bench.failed / bench.attempted,
                                           bench.failed, bench.attempted))
    print(json.dumps({"correct": not bench.problems, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return bench


def record(args):
    """Rewrite reference.json with every workload's residuals at the default seed."""
    doc = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in workloads.WORKLOADS:
        args.workload, args.seed = workload, DEFAULT_SEED
        bench = run_workload(args)
        doc["workloads"][workload] = bench.residuals
    with open(REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_all(args):
    """Each workload in a fresh interpreter, one after the other."""
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              timeout=180 + 2 * args.seconds)
        status = status or proc.returncode
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite reference.json at the default seed")
    ap.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.prepare:
        prepare_only(args.workload, args.seed, args.prepare)
        return 0
    if args.record:
        record(args)
        return 0
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("--workload or --all is required")
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
