"""Benchmark of the rayleighsums CLI: three exact-arithmetic workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or ``all`` to run each in
turn. Each pass runs every request of the workload once, through
``rayleighsums.cli.run`` in a fresh interpreter (worker.py), from a
single thread. Passes repeat, one after another, while another pass fits
in S seconds; timings are medians over passes.

--trace 0 reports the end-to-end metrics of BENCHMARK.json (pass wall
time, slowest request, peak resident memory, set-up time). --trace 1
alternates untraced passes with traced ones (spans.py) and reports the
per-layer metrics, plus both wall times and their difference, the
tracing overhead.

Every output of every pass is checked outside the timed region
(checks.py); a request that exits nonzero, raises or fails a check is
failed. As a negative control, a corrupted copy of each output of the
first pass must be rejected too. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "rayleighsums" / "__init__.py"

# Extra fresh interpreters that only measure set-up; with one sample per
# pass this gives a median over about 25.
SETUP_SAMPLES = 20
# Every run must end within 180 s; passes stop being started after this.
DEADLINE_S = 150


class PassFailed(Exception):
    pass


def spawn(mode: str, requests, timeout: float) -> dict:
    """Run worker.py once and return its JSON report."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(SRC), mode],
            input=json.dumps(requests),
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{mode} pass timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise PassFailed(f"{mode} pass exited {proc.returncode}: {proc.stderr[-2000:]}")
    report = json.loads(proc.stdout)
    if Path(report["package"]).resolve() != PACKAGE:
        raise PassFailed(f"imported rayleighsums from {report['package']}, not {PACKAGE}")
    return report


def measure(requests, seconds: float, trace: bool):
    """Passes per mode, set-up samples and pass failures, within the budget."""
    start = perf_counter()
    modes = ("run", "trace") if trace else ("run",)
    passes = {m: [] for m in modes}
    failures: list[str] = []
    rounds: list[float] = []
    while True:
        t = perf_counter()
        for mode in modes:
            try:
                passes[mode].append(spawn(mode, requests, DEADLINE_S - (t - start)))
            except PassFailed as exc:
                failures.append(str(exc))
        rounds.append(perf_counter() - t)
        elapsed = perf_counter() - start
        if failures or elapsed + statistics.median(rounds) > min(seconds, DEADLINE_S):
            break
    setup = [p["setup_s"] for ps in passes.values() for p in ps]
    for _ in range(SETUP_SAMPLES):
        setup.append(spawn("setup", None, 30)["setup_s"])
    return passes, setup, failures


def check_passes(requests, passes, reference, log):
    """(attempted, failed, controls flagged, controls made, digests)."""
    import checks

    attempted = failed = 0
    digests = {}
    for report in passes:
        for argv, r in zip(requests, report["requests"]):
            attempted += 1
            problems = _problems(checks, argv, r, reference)
            if problems:
                failed += 1
                log(f"FAILED {' '.join(argv)}: {'; '.join(problems)}")
            else:
                digests.setdefault(checks.key(argv), checks.digest(argv, r["out"]))
    flagged = made = 0
    if passes:
        for argv, r in zip(requests, passes[0]["requests"]):
            if r["rc"] != 0:
                continue
            made += 1
            bad = {**r, "out": checks.corrupt(argv, r["out"])}
            if _problems(checks, argv, bad, reference):
                flagged += 1
            else:
                log(f"negative control NOT flagged: {' '.join(argv)}")
    return attempted, failed, flagged, made, digests


def _problems(checks, argv, r, reference):
    try:
        problems = checks.check(argv, r["rc"], r["out"], reference)
    except Exception as exc:  # a malformed output is a failed check
        problems = [f"check raised {exc!r}"]
    if problems and r["err"]:
        problems.append(f"stderr: {r['err'].strip()[-300:]}")
    return problems


def end_to_end(passes, setup):
    runs = passes["run"]
    return {
        "wall_s": statistics.median([p["wall_s"] for p in runs]),
        # The slowest request by its median over passes: taking the max
        # within each pass first would add the noise of whichever request
        # happened to run slowest.
        "request_max_s": max(
            statistics.median(p["requests"][i]["s"] for p in runs)
            for i in range(len(runs[0]["requests"]))),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in runs]),
        "setup_s": statistics.median(setup),
    }


def _aggregate(report):
    """Span aggregates of one traced pass, summed over its requests."""
    g = {"calls": Counter(), "total": Counter(), "self": Counter(),
         "max_degree": 0, "max_coeff_bits": 0, "certified": 0}
    for r in report["requests"]:
        s = r["spans"]
        for k in ("calls", "total", "self"):
            g[k].update(s[k])
        g["max_degree"] = max(g["max_degree"], s["max_degree"])
        g["max_coeff_bits"] = max(g["max_coeff_bits"], s["max_coeff_bits"])
        g["certified"] += s["certified"]
    return g


def _calls(span):
    return lambda g: g["calls"][span]


def _total(span):
    return lambda g: g["total"][span]


def _self(span):
    return lambda g: g["self"][span]


# Per-layer metric -> value from one traced pass's aggregates.
LAYER_METRICS = {
    "poly.mul_calls": _calls("poly.mul"),
    "poly.mul_s": _total("poly.mul"),
    "poly.gcd_calls": _calls("poly.gcd"),
    "poly.gcd_s": _total("poly.gcd"),
    "poly.max_degree": lambda g: g["max_degree"],
    "poly.max_coeff_bits": lambda g: g["max_coeff_bits"],
    "ratfunc.canonical_calls": _calls("ratfunc.canonical"),
    "ratfunc.canonical_s": _total("ratfunc.canonical"),
    "series.divide_calls": _calls("series.divide"),
    "series.divide_s": _total("series.divide"),
    "series.divide_self_s": _self("series.divide"),
    "series.poly_mul_s": _total("series.poly_mul"),
    "oracle.series_build_s": _total("oracle.series_build"),
    "oracle.sums_s": _total("oracle.sums"),
    "sigma.table_s": _total("sigma.table"),
    "sigma.table_self_s": _self("sigma.table"),
    "mercer.tau_table_s": _total("mercer.tau_table"),
    "mercer.tau_table_self_s": _self("mercer.tau_table"),
    "mercer.verify_ode_s": _total("mercer.verify_ode"),
    "chf.s_table_s": _total("chf.s_table"),
    "zeros.find_zeros_s": _total("zeros.find_zeros"),
    "zeros.certified": lambda g: g["certified"],
    "zeros.s_per_zero": lambda g: (
        g["total"]["zeros.find_zeros"] / g["certified"] if g["certified"] else 0.0),
    "bounds.euler_rayleigh_s": _total("bounds.euler_rayleigh"),
    "bounds.nth_root_s": _total("bounds.nth_root"),
    "cli.self_s": _self("cli"),
    "serialize.encode_s": _total("serialize.encode"),
    "render.s": _total("render"),
    "rational.decimal_s": _total("rational.decimal"),
}


def per_layer(passes, units, log):
    aggs = [_aggregate(p) for p in passes["trace"]]
    values = {}
    for name, f in LAYER_METRICS.items():
        seen = [f(g) for g in aggs]
        # Counts must repeat exactly from pass to pass; times are medians.
        if units[name] != "s":
            if len(set(seen)) > 1:
                log(f"count {name} differs between passes: {seen}")
            values[name] = seen[0]
        else:
            values[name] = statistics.median(seen)
    traced = statistics.median([p["wall_s"] for p in passes["trace"]])
    untraced = statistics.median([p["wall_s"] for p in passes["run"]])
    values["trace.wall_s"] = traced
    values["trace.untraced_wall_s"] = untraced
    values["trace.overhead_s"] = traced - untraced
    # Where each request's time went, from the first traced pass.
    for r in passes["trace"][0]["requests"]:
        top = sorted(r["spans"]["self"].items(), key=lambda kv: -kv[1])[:4]
        log(f"  {r['s']:8.3f} s  " + ", ".join(f"{k} {v:.3f}" for k, v in top))
    return values


def run_workload(workload, seed, seconds, trace, spec, reference, log):
    requests = workload.requests(seed)
    why = {w["name"]: w["why"] for w in spec["workloads"]}[workload.name]
    log(f"workload {workload.name}, seed {seed}: {why}")
    for argv in requests:
        log("  rayleighsums " + " ".join(argv))
    spawn("setup", None, 60)  # compiles bytecode once, outside any sample
    passes, setup, failures = measure(requests, seconds, trace)
    for f in failures:
        log(f"FAILED pass: {f}")
    attempted, failed, flagged, made, digests = check_passes(
        requests, [p for ps in passes.values() for p in ps], reference, log)
    attempted += len(failures) * len(requests)
    failed += len(failures) * len(requests)
    for mode, ps in passes.items():
        log(f"{mode} passes, wall s: " + " ".join(f"{p['wall_s']:.3f}" for p in ps))
    log(f"error_rate {failed}/{attempted}")
    log(f"negative control: {flagged}/{made} corrupted outputs flagged; error_rate with "
        f"them {failed + flagged}/{attempted + made}")
    for k, d in digests.items():
        if d is not None:
            listed = reference["digests"].get(k)
            status = "matches reference" if listed == d else "not in reference"
            log(f"  {d[:16]} {status}: {k}")
    if not passes["run"] or (trace and not passes["trace"]):
        return None
    correct = failed == 0 and flagged == made > 0
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    values = per_layer(passes, units, log) if trace else end_to_end(passes, setup)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    spec_path = ROOT / "BENCHMARK.json"
    if not PACKAGE.is_file() or not spec_path.is_file():
        log(f"error: needs {PACKAGE} and {spec_path}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(spec_path.read_text())
    reference = json.loads((BENCH / "reference.json").read_text())
    env = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
           "machine": platform.machine()}
    print("env " + json.dumps(env), flush=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                           spec, reference, log)
        if res is None:
            log(f"error: no pass of {name} completed")
            return 1
        results[name] = res
        for metric, m in res["metrics"].items():
            print(f"{name:16s} {metric:26s} {m['value']:14.6f} {m['unit']}", flush=True)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
