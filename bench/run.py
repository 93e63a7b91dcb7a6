#!/usr/bin/env python3
"""roughtop benchmark: one workload, one run.

    python3 bench/run.py --workload {cli-pinned,explore-z4,trg-dense}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
its src/ directory, so nothing needs installing.  With --trace 0 the
run repeats whole passes of the workload until at least S seconds have
passed and reports the end-to-end metrics, timed by the host-speed
calibrated clock of bench/clock.py; with --trace 1 it runs the
same passes untraced and then traced and reports per-layer metrics,
writing the spans to bench/out/.  Every operation is checked against a
known answer after the clock stops.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clock  # the script's own directory is first on sys.path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
SETUP_RUNS = 15


def _program_present() -> bool:
    return (SRC / "roughtop" / "__init__.py").is_file() and (ROOT / "fixtures").is_dir()


def measure_setup(setup_code: str):
    """Median over fresh interpreters of the time to import what the
    workload calls and build its program-side inputs: (calibrated,
    raw).  Each interpreter times the reference loop before and after
    its set-up, on the same core, to calibrate its own sample."""
    code = (f"import sys, time\nsys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]\n"
            "import clock\n"
            "ref = [clock.time_reference() for _ in range(4)]\n"
            "t0 = time.perf_counter()\n" + setup_code
            + "\ndt = time.perf_counter() - t0\n"
            "ref += [clock.time_reference() for _ in range(2)]\n"
            "print(dt, clock.median(ref))\n")
    raw, calibrated = [], []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=120)
        dt, ref = map(float, done.stdout.split()[-2:])
        raw.append(dt)
        calibrated.append(dt * clock.REF_S / ref)
    return statistics.median(calibrated), statistics.median(raw)


def run_passes(workload, ops, seconds: float, count: int | None = None, recorder=None,
               calibrator=None):
    """Whole passes until `seconds` have elapsed (or exactly `count`).
    Each pass starts from a collected heap, so that the peak memory of
    a run does not hang on when the collector last ran."""
    passes, spans = [], []
    t0 = time.perf_counter()
    while True:
        gc.collect()
        start = time.perf_counter()
        passes.append(workload.run_pass(ops, recorder, passes[0] if passes else None,
                                        calibrator))
        spans.append((start, time.perf_counter()))
        wall = time.perf_counter() - t0
        if (count is not None and len(passes) >= count) or (count is None and wall >= seconds):
            if calibrator is not None:
                calibrator.probe()  # the last operations need probes after them too
            return passes, wall, spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not _program_present():
        print(f"bench: no roughtop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import oracle
    import probes
    import tracing
    import workloads

    import roughtop
    if Path(roughtop.__file__).resolve().parent != SRC / "roughtop":
        print(f"bench: imported roughtop from {roughtop.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; expected one of "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    oracle.self_check()
    w = workloads.WORKLOADS[args.workload]
    ops = w.build(args.seed, ROOT)

    if args.trace:
        untraced, wall_untraced, _ = run_passes(w, ops, args.seconds / 2)
        recorder = tracing.Recorder()
        restore = tracing.install(recorder)
        try:
            passes, wall_traced, _ = run_passes(w, ops, 0, count=len(untraced),
                                                 recorder=recorder)
        finally:
            restore()
        outcomes = w.judge(ops, passes)
        metrics = tracing.layer_metrics(recorder, wall_traced, wall_untraced)
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        recorder.dump(out_dir / f"spans-{w.name}-{args.seed}.jsonl")
    else:
        setup_s, setup_raw = measure_setup(w.setup_code)
        calibrator = clock.Calibrator()
        passes, wall, pass_spans = run_passes(w, ops, args.seconds,
                                              calibrator=calibrator)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        outcomes = w.judge(ops, passes)
        spans = w.spans(passes)
        lats = calibrator.calibrated(spans)
        pct = statistics.quantiles(lats, n=100)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (outcomes.count("ok") / calibrator.calibrated_total(pass_spans),
                          "1/s"),
            "latency_p50_ms": (statistics.median(lats) * 1e3, "ms"),
            "latency_p99_ms": (pct[98] * 1e3, "ms"),
            "ok_ratio": (outcomes.count("ok") / len(outcomes), "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "frontier_trg_n": (probes.frontier_trg_n(), "points"),
            "frontier_enum_n": (probes.frontier_enum_n(), "points"),
        }
        raw = [t1 - t0 for t0, t1 in spans]
        print(f"{w.name} seed={args.seed} passes={len(passes)} wall_s={wall:.3f} "
              f"latency_samples={len(lats)} host_factor={calibrator.factor():.3f} "
              f"probes={len(calibrator.took)} raw: setup_s={setup_raw:.6g} "
              f"ops_per_s={outcomes.count('ok') / wall:.6g} "
              f"latency_p50_ms={statistics.median(raw) * 1e3:.6g} "
              f"latency_p99_ms={statistics.quantiles(raw, n=100)[98] * 1e3:.6g}; calibrated: "
              + " ".join(f"{k}={v:.6g} {u}"
                         for k, (v, u) in metrics.items()))
    attempted = len(outcomes)
    result = {
        "correct": "wrong" not in outcomes,
        "attempted": attempted,
        "failed": attempted - outcomes.count("ok"),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if not result["correct"]:
        print(f"bench: {outcomes.count('wrong')} operations disagree with their "
              "known answer", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
