#!/usr/bin/env python3
"""The repository benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-steady --seed 1 \
        --seconds 30 --trace 0

``--workload`` is one of the names in ``perfbench/WORKLOADS.md`` (or
``all``).  The workload is repeated, each time set up from scratch,
until ``--seconds`` have passed (at least twice).  ``--trace 0``
reports the end-to-end metrics of untraced repetitions, host times
scaled to a reference host speed (:mod:`speed`); ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics.  Every metric is printed as ``name value unit``; the last
line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 only when every correctness check
held.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

END_TO_END = (("setup_s", "s"), ("items_per_host_s", "1/s"),
              ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("scheduler.self_s", "s"), ("scheduler.events", "count"),
    ("scheduler.self_us_per_event", "us"),
    ("queueing.select_s", "s"), ("queueing.calls", "count"),
    ("queueing.depth_mean", "count"), ("queueing.depth_max", "count"),
    ("queueing.batch_mean", "count"),
    ("fleet.predict_s", "s"), ("fleet.predict_calls", "count"),
    ("fleet.plan_lookup_s", "s"), ("fleet.plan_lookups", "count"),
    ("fleet.plan_hit_rate", "ratio"),
    ("fleet.execute_s", "s"), ("fleet.jobs", "count"),
    ("fleet.probes", "count"), ("fleet.prewarm_s", "s"),
    ("fleet.anomalies", "count"), ("fleet.drained_device_s", "s_virtual"),
    ("simulator.run_s", "s"), ("simulator.runs", "count"),
    ("simulator.ms_per_run", "ms"),
    ("ledger.s", "s"), ("ledger.calls", "count"),
    ("governor.switches_per_job", "count"),
    ("governor.replans_adopted", "count"),
    ("report.s", "s"), ("eventlog.s", "s"),
    ("datasets.generate_s", "s"), ("datasets.networks_per_s", "1/s"),
    ("datasets.blocks", "count"),
    ("labeling.distance_s", "s"), ("labeling.cluster_s", "s"),
    ("labeling.evaluate_s", "s"),
    ("predictors.hyperparam_fit_s", "s"),
    ("predictors.decision_fit_s", "s"),
    ("predictors.decision_epochs", "count"),
    ("pipeline.features_ms", "ms"), ("pipeline.hyperparam_ms", "ms"),
    ("pipeline.cluster_ms", "ms"), ("pipeline.decision_ms", "ms"),
    ("pipeline.analyze_ms_p50", "ms"), ("pipeline.analyze_ms_p90", "ms"),
    ("unattributed_s", "s"), ("trace.overhead_x", "ratio"),
    ("outcome.joules_per_request", "J"),
    ("outcome.slo_attainment", "ratio"), ("outcome.failed_share", "ratio"),
    ("outcome.latency_mean_s", "s_virtual"),
    ("outcome.latency_p50_s", "s_virtual"),
    ("outcome.latency_p95_s", "s_virtual"),
    ("outcome.decision_acc", "ratio"), ("outcome.plan_ee_gain", "ratio"),
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _repeat(step, seconds: float, minimum: int = 2) -> list:
    """Call ``step`` until ``seconds`` have passed (at least ``minimum``
    times), never starting a call the median so far says will not end
    in time once the minimum is reached."""
    done, took = [], []
    end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        done.append(step())
        took.append(time.perf_counter() - t0)
        if len(done) >= minimum and \
                time.perf_counter() + statistics.median(took) > end:
            return done


def run_workload(wl, speed, name: str, seed: int, seconds: float,
                 traced: bool) -> dict:
    w = wl.WORKLOADS[name]
    extra_setups: list = []
    held_out = None
    if w.kind == "fit":
        extra_setups = wl.fit_setup_s(w)
        t0 = time.perf_counter()
        held_out = wl.held_out_graphs(w, seed)
        seconds -= time.perf_counter() - t0

        def rep(trace_it):
            nonlocal held_out
            r = wl.fit_rep(w, trace_it, held_out)
            held_out = None           # analyzed once per run
            return r
    else:
        def rep(trace_it):
            return wl.serving_rep(w, seed, trace_it)

    if traced:
        pairs = _repeat(lambda: (rep(False), rep(True)), seconds,
                        minimum=1)
        plain = [u for u, _ in pairs]
        reps = [r for pair in pairs for r in pair]
        tracing = [t for _, t in pairs]
    else:
        kernel: list = []

        def timed_rep():
            kernel.append(speed.sample_s())
            return rep(False)

        plain = reps = _repeat(timed_rep, seconds)
        tracing = []

    errors = sorted({e for r in reps for e in r.errors})
    if len({r.digest for r in reps}) != 1:
        errors.append("outputs differ between repetitions of one seed")

    lines = []
    metrics = {}
    if traced:
        layer_values = {}
        for key in tracing[0].layers:
            layer_values[key] = statistics.median(
                t.layers[key] for t in tracing)
        shares = {k: statistics.median(t.shares[k] for t in tracing)
                  for k in tracing[0].shares}
        samples = [ms for r in reps for ms in r.samples_ms]
        layer_values["pipeline.analyze_ms_p50"] = wl.nearest_rank(
            samples, 0.50)
        layer_values["pipeline.analyze_ms_p90"] = wl.nearest_rank(
            samples, 0.90)
        for key, value in reps[0].outcome.items():
            layer_values[f"outcome.{key}"] = value
        layer_values["trace.overhead_x"] = (
            statistics.median(t.loop_s for t in tracing)
            / statistics.median(u.loop_s for u in plain))
        for key, unit in PER_LAYER:
            metrics[key] = {"value": float(layer_values.get(key, 0.0)),
                            "unit": unit}
        leader = max((k for k in shares if k != "unattributed"),
                     key=shares.get)
        lines.append("layer shares of the traced loop: " + ", ".join(
            f"{k} {v:.3f}" for k, v in
            sorted(shares.items(), key=lambda kv: -kv[1])))
        lines.append(f"lead layer: {leader}"
                     + (f" (expected {w.lead_layer})" if w.lead_layer
                        else ""))
        if w.lead_layer and leader != w.lead_layer:
            errors.append(f"workload no longer led by {w.lead_layer} "
                          f"(led by {leader})")
    else:
        # Host speed over the run relative to the reference speed
        # (< 1 when the host ran slower).
        host_speed = speed.NOMINAL_S / statistics.median(kernel)
        setup_s = statistics.median(
            extra_setups + [r.setup_s for r in reps])
        per_s = statistics.median(r.items / r.loop_s for r in reps)
        lines += [
            "kernel_s " + " ".join(f"{k:.3f}" for k in kernel),
            f"host speed vs reference {host_speed!r}",
            f"raw setup_s {setup_s!r} s",
            f"raw items_per_host_s {per_s!r} 1/s"]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            "setup_s": setup_s * host_speed,
            "items_per_host_s": per_s / host_speed,
            "peak_rss_mb": peak_mb,
        }
        for key, unit in END_TO_END:
            metrics[key] = {"value": values[key], "unit": unit}
        for key, value in reps[0].outcome.items():
            lines.append(f"outcome.{key} {value!r}")
        if w.kind == "fit":
            samples = [ms for r in reps for ms in r.samples_ms]
            fit_s = statistics.median(r.loop_s for r in reps)
            lines += [f"raw fit_s {fit_s!r} s",
                      f"analyze_ms_p50 {wl.nearest_rank(samples, 0.5)!r} ms"
                      f" (n={len(samples)})",
                      f"analyze_ms_p90 {wl.nearest_rank(samples, 0.9)!r} ms"]

    failed = 0 if not errors else sum(r.items for r in reps)
    return {
        "lines": [f"repetitions {len(reps)}",
                  "loop_s " + " ".join(f"{r.loop_s:.3f}" for r in reps)]
        + lines
        + [f"{k} {v['value']!r} {v['unit']}" for k, v in metrics.items()]
        + [f"CHECK FAILED: {e}" for e in errors],
        "result": {"correct": not errors,
                   "attempted": sum(r.items for r in reps),
                   "failed": failed,
                   "metrics": metrics},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    # One thread of load: NumPy's BLAS would otherwise start a thread
    # per CPU, which on a small shared host mostly adds contention.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import speed
    import workloads as wl

    names = list(wl.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    unknown = [n for n in names if n not in wl.WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(wl.WORKLOADS)} or all", file=sys.stderr)
        return 2
    status = 0
    for name in names:
        out = run_workload(wl, speed, name, args.seed, args.seconds,
                           bool(args.trace))
        print(f"# {name} seed={args.seed} trace={args.trace}")
        for line in out["lines"]:
            print(line)
        print(json.dumps(out["result"]), flush=True)
        if not out["result"]["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
