"""Span tracer installed around the public entry points of each pacebench layer.

Only the traced run installs it. Spans are kept in memory (name, start,
end, parent, run id) and turned into per-layer numbers when the run ends.
A span's layer is the part of its name before the first dot; its self time
is its duration minus the time its child spans cover. The pacer's sleeps
are spans of the ``idle`` layer, which is no layer's work: a layer's share
is of the busy time, the root spans less the sleeps.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import time
from array import array
from functools import wraps
from pathlib import Path
from typing import NamedTuple

import pacebench.bd
import pacebench.cli
import pacebench.curves
import pacebench.harness
import pacebench.pacer
import pacebench.quality
import pacebench.report

LAYERS = ("dataset", "harness", "ioutil", "pacer", "quality", "curves", "bd", "report", "cli")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    run_id: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class _TimedReader:
    """Stands in for a frame reader and records one span per frame read."""

    def __init__(self, reader, tracer: "Tracer"):
        self._reader = reader
        self._tracer = tracer
        self.sequence = reader.sequence

    def read_frame(self):
        with self._tracer.span("dataset.read_frame"):
            frame = self._reader.read_frame()
        if frame is not None:
            self._tracer.count("dataset.frames_read")
        return frame

    def __iter__(self):
        while (frame := self.read_frame()) is not None:
            yield frame

    def close(self) -> None:
        self._reader.close()


class _ModuleProxy:
    """A module as one pacebench module sees it, with some functions replaced."""

    def __init__(self, module, **replacements):
        self._module = module
        self.__dict__.update(replacements)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        # Span fields in flat arrays: compact, and invisible to the cyclic
        # garbage collector, so a long traced run does not slow collections.
        self._names: list[str] = []
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("q")
        self._runs = array("q")
        self.counts: dict[str, int] = {}
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # per paced run: (write-begin times, fps_num, fps_den, report, thread cpu s)
        self.paced_runs: list[tuple[list[float], int, int, object, float]] = []

    # -- recording --------------------------------------------------------

    def span(self, name: str):
        return _SpanContext(self, name)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def new_run(self) -> None:
        """Later spans belong to a new unit of work (a harness run, a report, a round)."""
        self.run_id += 1

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _timed(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)

        @wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        h, p, q = pacebench.harness, pacebench.pacer, pacebench.quality
        original_open = h.open_frame_reader
        original_popen = subprocess.Popen
        original_run_paced = p.run_paced
        original_pacer_write = p.write_all

        def open_frame_reader(path, sequence):
            with self.span("dataset.open"):
                return _TimedReader(original_open(path, sequence), self)

        def popen(*args, **kwargs):
            with self.span("harness.spawn"):
                return original_popen(*args, **kwargs)

        def sleep(seconds):
            with self.span("idle.sleep"):
                time.sleep(seconds)

        def run_paced(frames, sink, fps_num, fps_den, **kwargs):
            writes: list[float] = []

            def write_all(sink_, data):
                writes.append(time.monotonic())
                with self.span("pacer.write_all"):
                    return original_pacer_write(sink_, data)

            self._patch(p, "write_all", write_all)
            cpu0 = time.thread_time()
            try:
                with self.span("pacer.run_paced"):
                    report = original_run_paced(frames, sink, fps_num, fps_den, **kwargs)
            finally:
                cpu = time.thread_time() - cpu0
                owner, attr, previous = self._patches.pop()
                setattr(owner, attr, previous)
            self.paced_runs.append((writes, fps_num, fps_den, report, cpu))
            return report

        def run_wrapper(original):
            @wraps(original)
            def run(*args, **kwargs):
                self.new_run()
                self.count("harness.runs")
                try:
                    with self.span("harness.run"):
                        return original(*args, **kwargs)
                except Exception:
                    self.count("harness.runs_failed")
                    raise
            return run

        def count_scores(report) -> None:
            self.count("quality.frame_scores", len(report.per_frame_scores or ()))

        def count_cells(matrix) -> None:
            self.count("bd.undefined_cells", sum(v is None for v in matrix.cells.values()))

        self._patch(h, "open_frame_reader", open_frame_reader)
        self._patch(h, "subprocess", _ModuleProxy(subprocess, Popen=popen))
        self._patch(p, "time", _ModuleProxy(time, sleep=sleep, monotonic=time.monotonic))
        self._patch(p, "run_paced", run_paced)
        self._patch(h, "run_unpaced", run_wrapper(h.run_unpaced))
        self._patch(h, "run_paced", run_wrapper(h.run_paced))
        self._timed(h, "write_all", "harness.write_all")
        self._timed(h, "load_run_record", "harness.load_record")
        for module in (h, pacebench.curves, pacebench.cli):
            self._timed(module, "atomic_write_text", "ioutil.atomic_write")
        self._timed(q, "parse_metric_report", "quality.parse", after=count_scores)
        self._timed(q, "collect_curve", "quality.collect_curve")
        for module in (pacebench.curves, pacebench.cli):
            self._timed(module, "save_curve_csv", "curves.save_curve_csv")
        self._timed(pacebench.bd, "bd_rate", "bd.rate")
        self._timed(pacebench.bd, "bd_quality", "bd.quality")
        self._timed(pacebench.report, "build_matrix", "report.build_matrix", after=count_cells)
        self._timed(pacebench.report, "render", "report.render")
        self._timed(pacebench.report, "throughput_summary_csv", "report.throughput_csv")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def trace(self) -> "Trace":
        spans = [Span(*fields) for fields in zip(self._names, self._starts, self._ends,
                                                 self._parents, self._runs)]
        return Trace(spans, self.counts)


class Trace:
    """Finished spans with their self times."""

    def __init__(self, spans: list[Span], counts: dict[str, int]):
        self.spans = spans
        self.counts = counts
        self.own = [s.duration for s in spans]
        for s in spans:
            if s.parent >= 0:
                self.own[s.parent] -= s.duration

    def layer_self_seconds(self) -> dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for span, own in zip(self.spans, self.own):
            totals[span.layer] = totals.get(span.layer, 0.0) + own
        return totals

    def busy_seconds(self) -> float:
        """Root spans less the sleeps inside them."""
        return (sum(s.duration for s in self.spans if s.parent < 0)
                - sum(s.duration for s in self.spans if s.layer == "idle"))

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def self_durations(self, name: str) -> list[float]:
        return [own for s, own in zip(self.spans, self.own) if s.name == name]

    def exit_waits(self) -> list[float]:
        """Per harness run: last frame written -> run returned (close, exit, drain join)."""
        last_write: dict[int, float] = {}
        for s in self.spans:
            if s.name in ("harness.write_all", "pacer.write_all"):
                last_write[s.run_id] = max(last_write.get(s.run_id, 0.0), s.end)
        return [s.end - last_write[s.run_id] for s in self.spans
                if s.name == "harness.run" and s.run_id in last_write]

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps(s._asdict()) + "\n")


class _SpanContext:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t._names)
        t._names.append(self.name)
        t._parents.append(t._stack[-1] if t._stack else -1)
        t._runs.append(t.run_id)
        t._ends.append(0.0)
        t._starts.append(time.monotonic())
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t._ends[self.index] = time.monotonic()
        t._stack.pop()
        return False


PER_LAYER_UNITS = {
    "dataset.read_ms_per_frame": "ms",
    "dataset.frames_read": "count",
    "harness.spawn_ms": "ms",
    "harness.write_ms_per_frame": "ms",
    "harness.exit_wait_ms": "ms",
    "harness.runs": "count",
    "harness.runs_failed": "count",
    "harness.load_record_ms": "ms",
    "ioutil.atomic_writes": "count",
    "ioutil.atomic_write_ms": "ms",
    "pacer.thread_cpu_ms_per_frame": "ms",
    "pacer.dispatch_ms_p50": "ms",
    "pacer.blocked_ms_per_frame": "ms",
    "pacer.backpressure_blocked_ms_per_frame": "ms",
    "pacer.startup_lateness_ms": "ms",
    "pacer.late_frame_ratio": "ratio",
    "quality.parse_ms_per_report": "ms",
    "quality.frame_scores": "count",
    "quality.collect_ms_per_curve": "ms",
    "curves.save_ms_per_curve": "ms",
    "bd.rate_ms_per_call": "ms",
    "bd.quality_ms_per_call": "ms",
    "bd.calls": "count",
    "bd.undefined_cells": "count",
    "report.build_matrix_self_ms": "ms",
    "report.render_ms": "ms",
    "report.throughput_csv_ms": "ms",
    "cli.report_self_ms": "ms",
    **{f"self_pct.{layer}": "%" for layer in LAYERS},
}


def _mean_ms(values: list[float]) -> float:
    return 1e3 * sum(values) / len(values) if values else 0.0


def _median_ms(values: list[float]) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def per_layer_metrics(trace: Trace, tracer: Tracer, workload) -> dict[str, float]:
    """Every per-layer metric; a layer the workload does not use reports 0."""
    c = trace.counts
    d = trace.durations
    total = trace.busy_seconds()
    self_s = trace.layer_self_seconds()
    metrics = {
        "dataset.read_ms_per_frame":
            1e3 * sum(d("dataset.read_frame")) / c.get("dataset.frames_read", 1),
        "dataset.frames_read": c.get("dataset.frames_read", 0),
        "harness.spawn_ms": _median_ms(d("harness.spawn")),
        "harness.write_ms_per_frame": _mean_ms(d("harness.write_all")),
        "harness.exit_wait_ms": _median_ms(trace.exit_waits()),
        "harness.runs": c.get("harness.runs", 0),
        "harness.runs_failed": c.get("harness.runs_failed", 0),
        "harness.load_record_ms": _mean_ms(d("harness.load_record")),
        "ioutil.atomic_writes": len(d("ioutil.atomic_write")),
        "ioutil.atomic_write_ms": _mean_ms(d("ioutil.atomic_write")),
        "quality.parse_ms_per_report": _mean_ms(d("quality.parse")),
        "quality.frame_scores": c.get("quality.frame_scores", 0),
        "quality.collect_ms_per_curve": _mean_ms(d("quality.collect_curve")),
        "curves.save_ms_per_curve": _mean_ms(d("curves.save_curve_csv")),
        "bd.rate_ms_per_call": _mean_ms(d("bd.rate")),
        "bd.quality_ms_per_call": _mean_ms(d("bd.quality")),
        "bd.calls": len(d("bd.rate")) + len(d("bd.quality")),
        "bd.undefined_cells": c.get("bd.undefined_cells", 0),
        "report.build_matrix_self_ms": _mean_ms(trace.self_durations("report.build_matrix")),
        "report.render_ms": _mean_ms(d("report.render")),
        "report.throughput_csv_ms": _mean_ms(d("report.throughput_csv")),
        "cli.report_self_ms": _mean_ms(trace.self_durations("cli.dispatch")),
    }
    pacer_metrics = getattr(workload, "pacer_metrics", None)
    metrics.update(pacer_metrics(tracer) if pacer_metrics else {
        name: 0.0 for name in PER_LAYER_UNITS if name.startswith("pacer.")})
    for layer in LAYERS:
        metrics[f"self_pct.{layer}"] = 100.0 * self_s[layer] / total if total else 0.0
    return {name: metrics[name] for name in PER_LAYER_UNITS}
