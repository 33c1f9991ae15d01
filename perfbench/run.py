#!/usr/bin/env python3
"""pacebench benchmark: one workload, one seed, checked outputs, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload unpaced-feed --seed 1 --seconds 24 --trace 0

Workloads: unpaced-feed, paced-live, report-campaign, bd-matrix (see
perfbench/README.md). With ``--trace 0`` the result carries the end-to-end
metrics; with ``--trace 1`` untraced and traced operations take turns (for
paced-live: an untraced run, then a traced one), the printed tracing
overhead compares the two, and the result carries the per-layer metrics.
Human-readable lines naming every metric precede the JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "cpu_ms_per_item": "ms",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "pacebench" / "__init__.py").is_file():
        print("error: pacebench sources not found under src/", file=sys.stderr)
        return 2
    # One CPU for this process and every child: on a small VM, pipe transfers
    # between processes on different vCPUs wait on host scheduling, which made
    # unpaced throughput vary threefold between runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import measure, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)  # any temporary file stays inside the checkout
    try:
        workload = workloads.WORKLOADS[args.workload](work, args.seed, args.seconds)
        workload.generate()
        # A set-up is a fresh interpreter, so it is calibrated against one.
        setup, readings = measure.time_setup(ROOT, workload.setup_code, workload.setup_args(),
                                              lambda: workloads.pipe_slowness(work))
        if args.trace:
            from perfbench import tracing

            tracer = tracing.Tracer()
            untraced, result = workload.run_traced(tracer)
            untraced_metrics, _ = workload.end_to_end(untraced)
            result.attempted += untraced.attempted
            result.failed += untraced.failed
            result.problems += untraced.problems
            result.errors += untraced.errors
        else:
            result = workload.run()
        metrics, lines = workload.end_to_end(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    raw_setup = measure.median(setup)
    metrics["setup_s"] = raw_setup / measure.median(readings)
    metrics["peak_rss_mb"] = measure.peak_rss_mb()
    lines.insert(0, f"setup_s = {metrics['setup_s']:.6g} s  (median of {len(setup)} fresh "
                    f"interpreters, calibrated; raw {raw_setup:.6g} s, max {max(setup):.6g} s)")
    lines.append(f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB")
    lines.append(f"failure_ratio = {result.failed / max(1, result.attempted):.6g} ratio  "
                 f"({result.failed} failed of {result.attempted} attempted)")
    for name in END_TO_END_UNITS:
        lines.append(f"{name} = {metrics[name]:.6g} {END_TO_END_UNITS[name]}")

    if args.trace:
        trace = tracer.trace()
        per_layer = tracing.per_layer_metrics(trace, tracer, workload)
        lines.append("tracing overhead (traced minus untraced, share of untraced):")
        for name in ("throughput_per_s", "latency_p50_ms", "cpu_ms_per_item"):
            base = untraced_metrics[name]
            share = (metrics[name] - base) / base if base else 0.0
            lines.append(f"  {name}: {base:.6g} -> {metrics[name]:.6g} ({100 * share:+.2f}%)")
        lines += [f"{name} = {value:.6g}" for name, value in per_layer.items()]
        trace_dir = ROOT / ".perfbench-traces"
        trace_dir.mkdir(exist_ok=True)
        trace.dump(trace_dir / f"{args.workload}.jsonl")
        out = {name: {"value": value, "unit": tracing.PER_LAYER_UNITS[name]}
               for name, value in per_layer.items()}
    else:
        out = {name: {"value": metrics[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}

    for problem in result.problems[:20] + result.errors[:20]:
        print(f"check: {problem}", file=sys.stderr)
    correct = not result.problems and result.failed == 0 and result.attempted > 0
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
