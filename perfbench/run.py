"""paleyfq benchmark: three closed-loop workloads, checked against an oracle.

    python3 perfbench/run.py --workload alpha-bnb --seed 1 --seconds 35 --trace 0

Run from the repository root; the program is imported from ./src.  A run
is a series of passes.  Each pass spawns a fresh worker interpreter
(perfbench/worker.py) with numpy/BLAS/OpenMP pinned to one thread, which
runs the seed's job list once, one job after another, so no in-process
cache outlives a pass and no job repeats inside an interpreter.  Passes
continue while the next one fits in --seconds (at least MIN_PASSES).

--trace 0 reports the end-to-end metrics: the median pass wall time at the
reference speed, the median set-up time (over the passes and SETUP_SAMPLES
extra set-up-only spawns) and the median peak RSS.  The speed of this kind
of code on a shared VM drifts by 2x over seconds (a fixed pure-Python loop
took 45-120 ms within one minute on the 2-vCPU VM this was sized on), so
each worker samples a fixed kernel ten times a second while its jobs run
(worker.SpeedProbe) and a pass's wall time, less the probe's own time, is
rescaled by REF_PROBE_S / (typical kernel time in that pass).  That cut
the pass-to-pass variation from 10-19% to about 3% (coefficient of
variation); the raw wall times are printed as well.
--trace 1 alternates traced and untraced passes and reports the per-layer
metrics of the traced ones, their times rescaled the same way, plus the
tracing overhead.  Every job's output is checked against
perfbench/expected.json (recorded by perfbench/record.py) and against
closed forms; the last stdout line is one JSON object {correct,
attempted, failed, metrics}.
--workload all runs the three workloads in turn and prefixes the metric
names with the workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from workloads import DEFAULT_SEED, WORKLOADS, choose

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
EXPECTED = os.path.join(HERE, "expected.json")
SPANS_DIR = ".perfbench-out"

MIN_PASSES = 3
# mean SpeedProbe kernel time that counts as reference speed: about the
# median on the VM the benchmark was sized on
REF_PROBE_S = 0.0005
SETUP_SAMPLES = 7
# every process must be gone well inside the 180 s a run may take
HARD_LIMIT_S = 165.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

# per-layer metric -> (key in the worker's layer totals, unit)
PER_LAYER = (
    ("rings.make_ring.s", "rings.make_ring.s", "s"),
    ("rings.make_ring.elements", "rings.make_ring.elements", "count"),
    ("rings.kth_power_set.s", "rings.kth_power_set.s", "s"),
    ("rings.self_s", "rings.self_s", "s"),
    ("polys.kth_root.s", "polys.kth_root.s", "s"),
    ("polys.kth_root.calls", "polys.kth_root.calls", "count"),
    ("polys.compose.s", "polys.compose.s", "s"),
    ("polys.compose.calls", "polys.compose.calls", "count"),
    ("polys.self_s", "polys.self_s", "s"),
    ("graphs.to_generic.s", "graphs.to_generic.s", "s"),
    ("graphs.to_generic.calls", "graphs.to_generic.calls", "count"),
    ("graphs.adjacency_bits", "graphs.adjacency_bits", "bits"),
    ("graphs.strong_product.s", "graphs.strong_product.s", "s"),
    ("graphs.product_vertices", "graphs.product_vertices", "count"),
    ("graphs.fingerprint.s", "graphs.fingerprint.s", "s"),
    ("graphs.self_s", "graphs.self_s", "s"),
    ("solver.self_s", "solver.self_s", "s"),
    ("solver.calls", "solver.max_independent_set.calls", "count"),
    ("solver.vertices", "solver.vertices", "count"),
    ("solver.timeouts", "solver.timeouts", "count"),
    ("solver.verify_independent.s", "solver.verify_independent.s", "s"),
    ("indep.self_s", "indep.self_s", "s"),
    ("theta.cayley_spectrum.s", "theta.cayley_spectrum.s", "s"),
    ("theta.cayley_spectrum.calls", "theta.cayley_spectrum.calls", "count"),
    ("theta.spectrum_terms", "theta.spectrum_terms", "count"),
    ("theta.spectrum_bytes_computed", "theta.spectrum_bytes_computed", "bytes"),
    ("theta.self_s", "theta.self_s", "s"),
    ("powerfree.verify.s", "powerfree.verify.s", "s"),
    ("powerfree.verify_scan_pairs", "powerfree.verify_scan_pairs", "count"),
    ("powerfree.construct.s", "powerfree.construct.s", "s"),
    ("powerfree.greedy.s", "powerfree.greedy.s", "s"),
    ("powerfree.self_s", "powerfree.self_s", "s"),
    ("bounds.self_s", "bounds.self_s", "s"),
    ("cli.self_s", "cli.self_s", "s"),
    ("cli.calls", "cli.main.calls", "count"),
    ("cli.stdout_bytes", "cli.stdout_bytes", "bytes"),
    ("trace.spans", "trace.spans", "count"),
    ("trace.unattributed_s", "trace.unattributed_s", "s"),
    ("trace.overhead_s", None, "s"),
)


class BenchError(Exception):
    """The benchmark cannot run here (no program, no oracle, broken wrapper map)."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(root: str, jobs: list, trace: bool, setup_only: bool, timeout: float) -> dict:
    """One worker interpreter; waits for it to end and returns its report."""
    request = json.dumps({"root": root, "jobs": jobs, "trace": trace})
    argv = [sys.executable, WORKER, repr(time.monotonic())]
    if setup_only:
        argv.append("--setup-only")
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=worker_env(), cwd=root, text=True)
    try:
        out, _ = proc.communicate(request, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker still running after {timeout:.0f} s, killed")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def load_expected() -> dict:
    try:
        with open(EXPECTED) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise BenchError(f"{EXPECTED} is missing; run perfbench/record.py") from None


def _sweep_problems(rows) -> list[str]:
    out = []
    for q, k, th, comp in rows:
        if abs(th * comp - q) > 1e-6 * q:
            out.append(f"theta*theta_bar != q at q={q} k={k}")
        if k == 2 and q % 4 == 1 and max(abs(th - math.sqrt(q)), abs(comp - math.sqrt(q))) > 1e-9:
            out.append(f"conference theta != sqrt(q) at q={q}")
    return out


def closed_form_problems(check: dict, facts: dict) -> list[str]:
    """Headline values against their closed forms."""
    out = []
    for rule, arg in check.items():
        if rule == "hales":
            want = arg * arg + arg // 2
            if facts.get("alpha") != want:
                out.append(f"alpha {facts.get('alpha')} != k^2+floor(k/2) = {want}")
        elif rule == "r22":
            if facts.get("alpha") != arg:
                out.append(f"r_22 = {facts.get('alpha')} != q = {arg}")
        elif rule == "size":
            if facts.get("size") != arg:
                out.append(f"set size {facts.get('size')} != q = {arg}")
        elif rule == "sqrt":
            if facts.get("theta") is None or abs(facts["theta"] - math.sqrt(arg)) > 1e-9:
                out.append(f"theta {facts.get('theta')} != sqrt({arg})")
        elif rule == "verified":
            if facts.get("verified") is not True:
                out.append("construction not verified")
        elif rule == "bad":
            if facts.get("bad") != arg:
                out.append(f"{facts.get('bad')} k-th root round trips failed")
        elif rule == "sandwich":
            if not facts.get("lower", math.inf) <= facts.get("upper", -math.inf) + 1e-9:
                out.append("capacity lower bound above theta")
        elif rule == "sweep":
            out.extend(_sweep_problems(facts.get("rows", [])))
        else:
            raise BenchError(f"unknown check {rule!r}")
    return out


def job_problems(job: dict, res: dict, expected: dict) -> list[str]:
    """Why a job failed: exit code, recorded output, certificate, closed form."""
    exp = expected[job["id"]]
    out = []
    if res["rc"] != exp["rc"]:
        out.append(f"exit {res['rc']!r}, expected {exp['rc']!r}")
    if res["sha256"] != exp["sha256"]:
        out.append("output differs from the recorded one")
    if res["cert_ok"] is False:
        out.append("certificate does not re-verify")
    out.extend(closed_form_problems(job.get("check", {}), res["facts"]))
    return out


def check_coverage(workload: str, fires: set, traced: list) -> None:
    """Every binding the chosen slots name must exist and have fired."""
    installed = set(traced[0]["fired"])
    fired = {site for rep in traced for site, n in rep["fired"].items() if n}
    absent = sorted(fires - installed)
    silent = sorted(fires - fired - set(absent))
    if absent or silent:
        raise BenchError(
            f"wrapper coverage check failed on {workload}: "
            f"bindings not found (renamed or moved?): {absent}; "
            f"wrappers that never fired: {silent}")


def write_spans(root: str, workload: str, seed: int, traced: list) -> None:
    """Raw spans of the traced passes, [name, start, end, parent, job] with
    perf_counter times, for digging below the per-layer totals."""
    path = os.path.join(root, SPANS_DIR, f"spans-{workload}-seed{seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump([{"wall_s": r["wall_s"], "speed": r["speed"], "spans": r["spans"]}
                   for r in traced], fh)
    print(f"{workload}: spans written to {path}", file=sys.stderr)


def _median(values):
    return statistics.median(values) if values else math.nan


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    expected = load_expected()
    jobs, fires = choose(workload, seed)
    missing = [j["id"] for j in jobs if j["id"] not in expected]
    if missing:
        raise BenchError(f"no recorded output for {missing}; run perfbench/record.py")
    to_worker = [{k: v for k, v in j.items() if k != "check"} for j in jobs]

    t_start = time.monotonic()
    hard_end = t_start + HARD_LIMIT_S
    setups = [spawn(root, [], False, True, hard_end - time.monotonic())["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    kinds = ["T", "U"] if trace else ["U"]
    passes = {"T": [], "U": []}
    durations: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    while True:
        n = len(durations)
        elapsed = time.monotonic() - t_start
        if n >= MIN_PASSES and elapsed + max(durations) > seconds:
            break
        kind = kinds[n % len(kinds)]
        began = time.monotonic()
        attempted += len(jobs)
        try:
            report = spawn(root, to_worker, kind == "T", False, hard_end - began)
        except RuntimeError as exc:
            failed += len(jobs)
            problems.append(f"pass {n}: {exc}")
            break
        durations.append(time.monotonic() - began)
        setups.append(report["setup_s"])
        passes[kind].append(report)
        for job, res in zip(jobs, report["results"]):
            why = job_problems(job, res, expected)
            if why:
                failed += 1
                problems.append(f"pass {n} {job['id']}: {'; '.join(why)}")

    for line in problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    for kind, reports in passes.items():
        for rep in reports:
            typical = rep["probe_typical_s"]
            rep["speed"] = REF_PROBE_S / typical if typical else 1.0
            rep["ref_wall_s"] = (rep["wall_s"] - rep["probe_s"]) * rep["speed"]
        if reports:
            raw = " ".join(f"{r['wall_s']:.3f}" for r in reports)
            ref = " ".join(f"{r['ref_wall_s']:.3f}" for r in reports)
            print(f"{workload}: {'traced' if kind == 'T' else 'untraced'} passes, "
                  f"wall_s raw {raw} / at reference speed {ref}", file=sys.stderr)
    untraced = passes["U"]
    if not untraced:
        raise BenchError("no untraced pass completed")
    if trace:
        traced = passes["T"]
        if not traced:
            raise BenchError("no traced pass completed")
        check_coverage(workload, fires, traced)
        write_spans(root, workload, seed, traced)
        metrics, counts = {}, {}
        for name, key, unit in PER_LAYER:
            if key is None:
                value = (_median([r["ref_wall_s"] for r in traced])
                         - _median([r["ref_wall_s"] for r in untraced]))
                counts[name] = min(len(traced), len(untraced))
            else:
                scale = [r["speed"] if unit == "s" else 1 for r in traced]
                value = _median([r["layers"].get(key, 0) * f for r, f in zip(traced, scale)])
                counts[name] = len(traced)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "wall_s": {"value": _median([r["ref_wall_s"] for r in untraced]), "unit": "s"},
            "setup_s": {"value": _median(setups), "unit": "s"},
            "peak_rss_mb": {"value": _median([r["peak_rss_mb"] for r in untraced]),
                            "unit": "MB"},
        }
        counts = {"wall_s": len(untraced), "setup_s": len(setups),
                  "peak_rss_mb": len(untraced)}
        raw = [r["wall_s"] for r in untraced]
        print(f"{workload:17s} {'raw wall_s (not rescaled)':30s} {_median(raw):>16.6f} "
              f"{'s':6s} n={len(raw)} min {min(raw):.6f}")
    for name, m in metrics.items():
        print(f"{workload:17s} {name:30s} {m['value']:>16.6f} {m['unit']:6s} "
              f"n={counts[name]}")
    print(f"{workload:17s} {'fail_ratio':30s} {failed / attempted:>16.6f} "
          f"{'ratio':6s} n={attempted} (failed/attempted)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "paleyfq", "__init__.py")):
        print(f"no paleyfq sources under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            prefix = f"{name}." if args.workload == "all" else ""
            for metric, value in result["metrics"].items():
                total["metrics"][prefix + metric] = value
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
