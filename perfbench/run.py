#!/usr/bin/env python3
"""Benchmark of the qwh checker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qwh checkout; the package is imported from ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Each
run also writes its raw samples to ``.perfbench_out/``, and a traced run
its spans.  See ``perfbench/DESIGN.md`` for why the workloads and metrics
are what they are.

A run starts its worker processes one after another; each runs the
workload closed-loop in one thread, and nothing runs in parallel:

* set-up probes import qwh and exit, to time set-up only;
* untraced workers time a cold pass, then warm passes for their share of
  ``--seconds``;
* a traced run uses one worker that wraps qwh's layers (``tracer.py``),
  traces the cold pass, then alternates untraced and traced warm passes.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_SAMPLES = 7  # set-up times per run, from probes and workers together
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
# Fresh worker processes per untraced run, each paying one cold pass: the
# suite workloads' passes take seconds, so cold_s is the median of a few
# processes rather than of one.
WORKERS = {"suites-symbolic": 5, "suites-specialized": 2, "calculus-queries": 5}

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "peak_rss_mb": "MB",
}


# -- statistics ---------------------------------------------------------------

def percentile(samples, q):
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it.  Returns (value, number of samples beyond it)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(samples, q, min_beyond=10):
    """The q-th percentile, refusing one with fewer than ``min_beyond``
    samples beyond it."""
    value, beyond = percentile(samples, q)
    if beyond < min_beyond:
        raise ValueError(
            f"p{q} of {len(samples)} samples has {beyond} beyond it; need {min_beyond}"
        )
    return value


def calibration_loop():
    """A fixed pure-Python loop; its time tracks the host's speed."""
    t = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i * i % 7
    return time.perf_counter() - t


def host_calib(reps=3):
    return statistics.median(calibration_loop() for _ in range(reps))


# -- worker -------------------------------------------------------------------

def run_pass(wl, k, tracer=None):
    """Run pass k of a workload.  Returns (pass seconds, op seconds,
    attempted, failures); checking happens after the timed region."""
    gc.collect()
    done = []
    t0 = time.perf_counter()
    for index, (label, thunk, check) in enumerate(wl.ops(k)):
        if tracer is not None:
            tracer.op_id = (k, index)
            thunk = (lambda f=thunk, name=wl.span_prefix + label: tracer.span(name, f))
        a = time.perf_counter()
        try:
            out, err = thunk(), None
        except Exception as exc:  # a raising op is a failed op
            out, err = None, f"{type(exc).__name__}: {exc}"
        done.append((label, time.perf_counter() - a, out, err, check))
    pass_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()  # checks are not part of the traced work
    failures = []
    for label, _, out, err, check in done:
        reason = err if err is not None else check(out)
        if reason is not None:
            failures.append(f"pass {k} {label}: {reason}")
    return pass_s, [(label, dt) for label, dt, *_ in done], len(done), failures


def worker_main(spec):
    sys.path.insert(0, str(SRC))
    import qwh  # noqa: F401  (set-up ends here)

    ready = time.monotonic()
    result = {"setup_s": ready - spec["spawned"]}
    if spec["role"] == "probe":
        return result

    import workloads

    wl = workloads.WORKLOADS[spec["workload"]](spec["seed"], spec["index"])
    tracer = None
    if spec["role"] == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cold_s, cold_ops, attempted, failures = run_pass(wl, 0, tracer)
    result.update(cold_s=cold_s, cold_ops=cold_ops)
    if tracer is not None:
        result["cold_layers"] = tracer.end_pass()

    # a traced worker alternates untraced and traced warm passes, so that
    # host drift hits both alike; both kinds run at least once
    warm, traced, layers = [], [], []
    deadline = time.perf_counter() + spec["seconds"]
    k = 1
    while time.perf_counter() < deadline or not warm or (tracer and not traced):
        trace_this = tracer is not None and k % 2 == 0
        if trace_this:
            tracer.install()
            tracer.begin_pass()
        pass_s, ops, n, fails = run_pass(wl, k, tracer if trace_this else None)
        attempted += n
        failures += fails
        if trace_this:
            traced.append(pass_s)
            layers.append(tracer.end_pass())
        else:
            warm.append({"pass_s": pass_s, "ops": ops})
        k += 1
    result.update(warm=warm, attempted=attempted, failures=failures,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        tracer.check_coverage(spec["workload"])
        result.update(traced_warm_s=traced, layers=layers)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{spec['workload']}-seed{spec['seed']}.jsonl.gz")
    return result


# -- orchestration ------------------------------------------------------------

def spawn(spec, started):
    """Run one worker to completion and return its result dict."""
    remaining = RUN_DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise RuntimeError("out of time before starting a worker")
    # fixed string hashing, so that equal inputs do equal work in every run
    env = dict(os.environ, PYTHONHASHSEED="0")
    spec = dict(spec, spawned=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--worker", json.dumps(spec)],
        stdout=subprocess.PIPE, env=env, cwd=str(ROOT), text=True,
    )
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{spec['role']} worker did not finish in time") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{spec['role']} worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def op_latencies(workload, warm):
    """Median over the given passes of each pass's p50 and p99 op time, in
    ms.  A traced run reports them from its untraced warm passes.  On
    calculus-queries a pass holds enough ops for p99 to have at least
    ten samples beyond it; a suite pass holds 18 or 21 suite runs, so
    there p99 is the slowest suite."""
    p50s, p99s = [], []
    for w in warm:
        times = [dt * 1e3 for _, dt in w["ops"]]
        p50s.append(percentile(times, 50)[0])
        if workload == "calculus-queries":
            p99s.append(tail_percentile(times, 99))
        else:
            p99s.append(percentile(times, 99)[0])
    return statistics.median(p50s), statistics.median(p99s)


def suite_times(warm):
    """{label: median seconds over the passes} for the per-suite metrics."""
    by_label = {}
    for w in warm:
        for label, dt in w["ops"]:
            by_label.setdefault(label, []).append(dt)
    return {label: statistics.median(v) for label, v in by_label.items()}


def layer_metrics(workload, res):
    import tracer
    import workloads

    out = {}
    for metric in tracer.LAYER_METRICS:
        out[metric] = statistics.median(p[metric] for p in res["layers"])
    for metric in tracer.COLD_METRICS:
        out[f"cold.{metric}"] = res["cold_layers"][metric]
    out["op_p50_ms"], out["op_p99_ms"] = op_latencies(workload, res["warm"])
    times = suite_times(res["warm"]) if workload != "calculus-queries" else {}
    labels = list(workloads.SUITE_NAMES) + [
        f"{n}-generic-q" for n in workloads.GENERIC_Q_VERDICTS
    ]
    for label in labels:
        out[f"cli.suite.{label}.s"] = times.get(label, 0.0)
    out["trace.overhead_s"] = (statistics.median(res["traced_warm_s"])
                               - statistics.median(w["pass_s"] for w in res["warm"]))
    return out


LAYER_UNITS_BY_SUFFIX = (("_ms", "ms"), ("_s", "s"), (".s", "s"), ("calls", "count"),
                         ("ops", "count"), ("examined", "count"),
                         ("completion", "count"), ("share", "ratio"),
                         ("error_rate", "ratio"))


def layer_unit(name):
    for suffix, unit in LAYER_UNITS_BY_SUFFIX:
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qwh" / "__init__.py").is_file():
        print(f"error: no qwh package under {SRC}; run from a qwh checkout",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    calib_start = host_calib()
    base = {"workload": args.workload, "seed": args.seed}
    workers = 1 if args.trace else WORKERS[args.workload]
    probes = [spawn(dict(base, role="probe"), started)
              for _ in range(max(0, SETUP_SAMPLES - workers))]
    role = "traced" if args.trace else "untraced"
    results = [
        spawn(dict(base, role=role, index=j, seconds=args.seconds / workers), started)
        for j in range(workers)
    ]
    calib_end = host_calib()

    warm = [w for r in results for w in r["warm"]]
    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    setup_samples = [p["setup_s"] for p in probes + results]
    e2e = {
        "setup_s": statistics.median(setup_samples),
        "cold_s": statistics.median(r["cold_s"] for r in results),
        "warm_s": statistics.median(w["pass_s"] for w in warm),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host.calib_s": [calib_start, calib_end],
        "setup_samples": setup_samples, "end_to_end": e2e,
        "attempted": attempted, "failures": failures, "workers": results,
    }
    if args.trace:
        metrics = layer_metrics(args.workload, results[0])
        metrics["host.calib_s"] = (calib_start + calib_end) / 2
        metrics["error_rate"] = len(failures) / attempted
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    record["metrics"] = metrics
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"host.calib_s start {calib_start:.4f} end {calib_end:.4f}; "
          f"{len(warm)} warm passes, {attempted} ops, {len(failures)} failed",
          file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--worker":
        print(json.dumps(worker_main(json.loads(sys.argv[2]))))
    else:
        sys.exit(main())
