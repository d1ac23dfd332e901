"""weilspin benchmark: time to a verified verdict, one datum at a time.

    python3 perfbench/run.py --workload sixfold-q2 --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; weilspin is imported from its `src/`.
BENCHMARK.json lists sixfold-q2 and fourfold-rm2.  eightfold-lie is run by
hand only: one run of it is a single verify of over a minute, so its
figures follow the host's speed from run to run and cannot be made steady
within the time the listed runs are allowed.
The loop is closed with one client: each `weilspin verify` runs in a fresh
worker process (so peak RSS belongs to that run), and the next starts only
after the previous one has finished, while the next one is expected to end
within --seconds.  Every run must reach the known answers below; a crash,
a timeout, a non-zero exit or a wrong answer is a failed run, never a
dropped one.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced
worker (which also runs the layer micro-benchmarks) and one traced worker,
prints the per-layer metrics and the tracing overhead, and checks that the
tracer saw every layer the workload is meant to exercise.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import datum  # noqa: E402
from tracer import CHECK_FAMILIES, STEMS  # noqa: E402

perf = time.perf_counter

DEADLINE_S = 165  # the whole invocation must end well within 180 s
BLAS_THREADS = str(min(2, os.cpu_count() or 1))

SIXFOLD, FOURFOLD, EIGHTFOLD = "sixfold-q2", "fourfold-rm2", "eightfold-lie"

# Invariant dimensions of wedge^k V under g_B for a principal sixfold with
# F = Q: the invariants are generated by the Xi class (degree 2, one per
# degree 2j) and the two-dimensional Weil space in degree 6.
SIXFOLD_INVARIANT_DIMS = [1, 0, 1, 0, 1, 0, 3, 0, 1, 0, 1, 0, 1]

# Why each workload (see BENCHMARK.json): sixfold-q2 is dominated by the
# modular invariant certificate; fourfold-rm2 by exact rref, forms and
# transform lemmas over the full biquadratic tower; eightfold-lie by the
# exact build at n = 4 and the Clifford layer, with no certificate at all.
# "checks" is the number of checks the suite runs on the datum.
WORKLOADS = {
    SIXFOLD: {"preset": "sixfold-q2", "check": None, "p": 1, "q": 2, "n": 3, "checks": 52,
              "invariant_dims": SIXFOLD_INVARIANT_DIMS},
    FOURFOLD: {"preset": "fourfold-rm2", "check": None, "p": 2, "q": 1, "n": 2, "checks": 40},
    EIGHTFOLD: {"preset": None, "check": "lie.", "p": 1, "q": datum.Q, "n": datum.N, "checks": 4},
}


def expected_witnesses(wl: dict) -> dict:
    """check name -> {witness field: value}, from the paper's formulas."""
    e = 2 if wl["p"] == 1 else 4  # [K : Q]
    d = 4 * wl["n"] // e  # dim_K V
    out = {
        "secant.dimension": {"dim": 2 ** (e // 2)},
        "weil.dimension": {"dim": e},
        "lie.annihilator-dimension": {"dim": (e // 2) * (d * d - 1)},
    }
    for k, dim in enumerate(wl.get("invariant_dims", [])):
        out[f"invariants.k={k}"] = {"invariant_dim": dim}
    return out


def known_answer_errors(wl: dict, code: int, report: dict) -> list:
    """Every way the report differs from the known answers (empty if none)."""
    errs = []
    if code != 0:
        errs.append(f"exit code {code}")
    e = 2 if wl["p"] == 1 else 4
    inst = report.get("instance", {})
    want_inst = {"p": wl["p"], "n": wl["n"], "e": e, "d": 4 * wl["n"] // e}
    for key, val in want_inst.items():
        if inst.get(key) != val:
            errs.append(f"instance.{key} = {inst.get(key)!r}, expected {val}")
    checks = report.get("checks", [])
    if len(checks) != wl["checks"]:
        errs.append(f"{len(checks)} checks, expected {wl['checks']}")
    summary = report.get("summary", {})
    if summary.get("fail") != 0 or summary.get("pass") != wl["checks"]:
        errs.append(f"summary {summary}")
    by_name = {c["name"]: c for c in checks}
    for c in checks:
        if c["status"] != "pass" or "error" in c["witness"]:
            errs.append(f"{c['name']}: {c['status']} {c['witness']}")
    for name, fields in expected_witnesses(wl).items():
        if wl["check"] and wl["check"] not in name:
            continue
        got = by_name.get(name)
        if got is None:
            errs.append(f"{name}: missing")
            continue
        for key, val in fields.items():
            if got["witness"].get(key) != val:
                errs.append(f"{name}.{key} = {got['witness'].get(key)!r}, expected {val}")
    return errs


class Bench:
    """Runs workers for one workload and seed, and checks every result."""

    def __init__(self, root: str, work: str, workload: str, seed: int):
        self.root = root
        self.work = work
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.start = perf()
        self.attempted = 0
        self.failed = 0
        self.checks_failed = 0
        self.report_sha = None
        self.report_bytes = None
        argv = ["verify"]
        if self.wl["preset"]:
            argv += ["--preset", self.wl["preset"]]
        else:
            path = os.path.join(work, "datum.json")
            with open(path, "w") as fh:
                json.dump(datum.generate(seed), fh)
            argv += ["--input", path, "--check", self.wl["check"]]
        self.argv = argv + ["--seed", str(seed)]

    def remaining(self) -> float:
        return DEADLINE_S - (perf() - self.start)

    def env(self) -> dict:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
                   PYTHONHASHSEED="0")
        env.pop("PYTHONPATH", None)
        return env

    def warm_up(self):
        """Import once in a throwaway process, so bytecode is compiled before timing."""
        code = f"import sys; sys.path.insert(0, {os.path.join(self.root, 'src')!r}); import weilspin.cli"
        subprocess.run([sys.executable, "-c", code], env=self.env(), check=True,
                       timeout=max(1.0, self.remaining()))

    def run_worker(self, trace: bool, micro: bool):
        """One verify in a fresh process; the result dict, or None if the run failed."""
        self.attempted += 1
        idx = self.attempted
        report = os.path.join(self.work, f"report{idx}.json")
        spec_path = os.path.join(self.work, f"spec{idx}.json")
        result_path = os.path.join(self.work, f"result{idx}.json")
        spec = {"src": os.path.join(self.root, "src"), "argv": self.argv + ["--out", report],
                "preset": self.wl["preset"], "trace": trace, "micro": micro, "seed": self.seed,
                "tower": {"p": self.wl["p"], "q": self.wl["q"]}}
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path]
        try:
            proc = subprocess.run(cmd, env=self.env(), capture_output=True, text=True,
                                  timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            return self._fail(f"run {idx}: timed out")
        if proc.returncode != 0 or not os.path.exists(result_path):
            tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
            return self._fail(f"run {idx}: worker exit {proc.returncode}: {tail}")
        with open(result_path) as fh:
            result = json.load(fh)
        if not os.path.exists(report):
            return self._fail(f"run {idx}: verify exit {result['exit']}, no report: "
                              + " | ".join(result["stderr_tail"]))
        with open(report, "rb") as fh:
            raw = fh.read()
        try:
            parsed = json.loads(raw)
            self.checks_failed += sum(1 for c in parsed.get("checks", [])
                                      if c["status"] != "pass" or "error" in c["witness"])
            errs = known_answer_errors(self.wl, result["exit"], parsed)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return self._fail(f"run {idx}: malformed report: {type(exc).__name__}: {exc}")
        sha = hashlib.sha256(raw).hexdigest()
        if self.report_sha is None:
            self.report_sha, self.report_bytes = sha, len(raw)
        elif sha != self.report_sha:
            errs.append(f"report sha256 {sha[:12]} differs from the first run's {self.report_sha[:12]}")
        if trace and result["unpatched"]:
            errs.append(f"tracer missed import sites: {result['unpatched']}")
        if errs:
            return self._fail(f"run {idx}: " + "; ".join(errs[:5]))
        return result

    def _fail(self, why: str):
        self.failed += 1
        print(f"FAILED {self.name} seed {self.seed}: {why}", file=sys.stderr)
        return None

    def closed_loop(self, seconds: float) -> list:
        """Verify runs back to back while the next is expected to end within `seconds`."""
        t0 = perf()
        durations, results = [], []
        while True:
            r0 = perf()
            result = self.run_worker(trace=False, micro=False)
            durations.append(perf() - r0)
            if result is not None:
                results.append(result)
            elapsed = perf() - t0
            if (elapsed + statistics.median(durations) > seconds
                    or self.remaining() < 2 * max(durations)):
                return results


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(results: list) -> dict:
    return {
        "verify_s": metric(statistics.median(r["verify_s"] for r in results), "s"),
        "setup_s": metric(statistics.median(r["setup_s"] for r in results), "s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in results), "MB"),
    }


# layer stem -> workloads on which the layer must record calls
MUST_RUN = {
    "linalg.modp_joint_kernel_dim": (SIXFOLD,),
    "linalg.modp_kernel": (SIXFOLD,),
    "weilcm.invariant_dimension_certificate": (SIXFOLD,),
    "weilcm.generated_subalgebra_degree": (SIXFOLD,),
    "linalg.rref": (EIGHTFOLD, FOURFOLD, SIXFOLD),
    "linalg.nullspace": (EIGHTFOLD, FOURFOLD, SIXFOLD),
    **{f"weilcm.build_{s}": (EIGHTFOLD, FOURFOLD, SIXFOLD)
       for s in ("spinor", "W", "eta", "WT", "B", "HW", "gB")},
    "weilcm.xi_forms": (EIGHTFOLD, FOURFOLD, SIXFOLD),
    "weilcm.gb_int_cols": (EIGHTFOLD, FOURFOLD, SIXFOLD),
    "clifford.clifford_mul": (EIGHTFOLD, SIXFOLD),
    "clifford.derivation_int": (EIGHTFOLD, SIXFOLD),
    "exteralg.wedge": (FOURFOLD, SIXFOLD),
    "purespinor.annihilator": (FOURFOLD, SIXFOLD),
    "fmtransform.orlov_init": (FOURFOLD, SIXFOLD),
    "fmtransform.transform": (FOURFOLD, SIXFOLD),
    **{f"secantpipe.check.{f}": (FOURFOLD, SIXFOLD) for f in CHECK_FAMILIES if f != "pipeline"},
    "secantpipe.check.pipeline": (SIXFOLD,),
    "secantpipe.check.lie": (EIGHTFOLD, FOURFOLD, SIXFOLD),
}
# layer stem -> workloads on which the layer must not run at all
MUST_NOT_RUN = {
    "linalg.modp_joint_kernel_dim": (EIGHTFOLD,),
    "linalg.modp_kernel": (EIGHTFOLD,),
    "weilcm.invariant_dimension_certificate": (EIGHTFOLD,),
    "weilcm.generated_subalgebra_degree": (EIGHTFOLD,),
    "fmtransform.transform": (EIGHTFOLD,),
    "secantpipe.check.invariants": (EIGHTFOLD,),
}
COUNTED = ("linalg.rref", "linalg.nullspace", "linalg.modp_joint_kernel_dim", "linalg.modp_kernel",
           "weilcm.invariant_dimension_certificate", "clifford.clifford_mul",
           "clifford.derivation_int", "exteralg.wedge", "purespinor.annihilator",
           "fmtransform.transform")
INVARIANT_DEGREES = range(4, 9)


def boundary_errors(workload: str, calls: dict) -> list:
    """Layers the traced run should have seen on this workload but did not, or vice versa."""
    errs = [f"{stem}: no calls" for stem, wls in MUST_RUN.items()
            if workload in wls and not calls.get(stem)]
    errs += [f"{stem}: {calls[stem]} calls, expected none" for stem, wls in MUST_NOT_RUN.items()
             if workload in wls and calls.get(stem)]
    return errs


def per_layer(bench: Bench, base: dict, traced: dict) -> dict:
    calls, secs = traced["calls"], traced["seconds"]
    out = {}
    for stem in STEMS:
        out[f"{stem}_s"] = metric(secs.get(stem, 0.0), "s")
    for stem in COUNTED:
        out[f"{stem}_calls"] = metric(calls.get(stem, 0), "count")
    certs = calls.get("weilcm.certificates", 0)
    out["linalg.primes_per_certificate"] = metric(
        calls.get("linalg.modp_joint_kernel_dim", 0) / certs if certs else 0.0, "ratio")
    out["linalg.rref_rank_ratio"] = metric(
        traced["rref_rank"] / traced["rref_rows"] if traced["rref_rows"] else 0.0, "ratio")
    for fam in CHECK_FAMILIES:
        out[f"secantpipe.check.{fam}_s"] = metric(secs.get(f"secantpipe.check.{fam}", 0.0), "s")
    for k in INVARIANT_DEGREES:
        key = f"secantpipe.check.invariants.k{k}"
        out[f"{key}_s"] = metric(secs.get(key, 0.0), "s")
    for key, val in base["micro"].items():
        out[key] = metric(val, key.rsplit("_", 1)[1])
    for key in ("setup.import_s", "setup.datum_s", "setup.structure_s"):
        out[key] = metric(base[key], "s")
    out["cli.report_bytes"] = metric(bench.report_bytes, "bytes")
    out["checks_failed"] = metric(bench.checks_failed, "count")
    out["verify_untraced_s"] = metric(base["verify_s"], "s")
    out["verify_traced_s"] = metric(traced["verify_s"], "s")
    out["trace_overhead_s"] = metric(traced["verify_s"] - base["verify_s"], "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running worker,
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "weilspin", "cli.py")):
        print(f"error: no weilspin sources under {os.path.join(root, 'src')}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as work:
        bench = Bench(root, work, args.workload, args.seed)
        bench.warm_up()
        correct = True
        if args.trace:
            base = bench.run_worker(trace=False, micro=True)
            traced = bench.run_worker(trace=True, micro=False)
            if base is None or traced is None:
                print("error: the untraced or traced run failed", file=sys.stderr)
                return 1
            errs = boundary_errors(args.workload, traced["calls"])
            for err in errs:
                print(f"boundary self-test: {err}", file=sys.stderr)
            correct = not errs
            metrics = per_layer(bench, base, traced)
        else:
            results = bench.closed_loop(args.seconds)
            if not results:
                print("error: no run succeeded", file=sys.stderr)
                return 1
            metrics = end_to_end(results)
            # A run holds one to about fifteen verifies, too few for a high
            # percentile with ten samples beyond it, so the slowest verify is
            # printed for reference but not reported as a metric.
            print(f"{args.workload} seed {args.seed}: {len(results)} verify runs, slowest "
                  f"{max(r['verify_s'] for r in results):.4f} s")
    correct = correct and bench.failed == 0
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_ratio':48s} {bench.failed / bench.attempted:>14.6g} ratio"
          f"  ({bench.failed} of {bench.attempted} runs)")
    if "checks_failed" not in metrics:
        print(f"  {'checks_failed':48s} {bench.checks_failed:>14d} count")
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
