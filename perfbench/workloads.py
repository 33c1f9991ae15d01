"""The four workloads: inputs, the measured loop, output checks and metrics.

Each workload generates its inputs from the seed, then ``run`` drives the
public pacebench APIs for the requested number of seconds and returns a
``Pass``: operation counts, check failures and raw timing samples.
``end_to_end`` turns a pass into the gated metrics plus the human-readable
lines that name each metric as the workload defines it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from pacebench import dataset, harness

from . import checks, generate
from .measure import Stopwatch, median, process_cpu_s, python_slowness, tail

SINK = Path(__file__).resolve().parent / "sink.py"


@dataclass
class Pass:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def fail(self, exc: Exception, ops: int = 1) -> None:
        self.failed += ops
        self.errors.append(f"{type(exc).__name__}: {exc}")

    def readings(self) -> list[float]:
        """The reference's slowness readings, which every Stopwatch of the run appends to."""
        return self.samples.setdefault("slowness", [])

    def slowness(self) -> float:
        """Median slowness of the reference over the run; calibrated = raw / slowness."""
        return median(self.samples.get("slowness", [])) or 1.0


def _line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else "")


def _timing_note(values: list[float], unit: str) -> str:
    p, v = tail(values)
    return f"median of {len(values)}; p{p:g} = {v:.6g} {unit}"


def _slowness_line(result: Pass) -> str:
    readings = result.samples.get("slowness", [])
    return _line("reference_slowness", result.slowness(), "ratio",
                 f"median of {len(readings)} readings; calibrated = raw / slowness")


class Workload:
    name = ""
    setup_code = ""

    def __init__(self, work: Path, seed: int, seconds: float):
        self.work, self.seed, self.seconds = work, seed, seconds

    def setup_args(self) -> list[str]:
        return []

    def slowness(self) -> float:
        """The reference that calibrates this workload's timings (see measure.Stopwatch)."""
        return python_slowness()

    def generate(self) -> None:
        raise NotImplementedError

    def run(self, tracer=None) -> Pass:
        """One warm-up operation (checked, not timed), then operations until time is up."""
        result = Pass()
        self.step(result, tracer, timed=False)
        end = time.monotonic() + self.seconds
        while time.monotonic() < end:
            self.step(result, tracer, timed=True)
        return result

    def run_traced(self, tracer) -> tuple[Pass, Pass]:
        """Untraced and traced operations in turn, so host drift hits both alike.

        Returns (untraced, traced); the tracer is installed only around the
        traced operations.
        """
        plain, traced = Pass(), Pass()
        self.step(plain, None, timed=False)
        end = time.monotonic() + self.seconds
        while time.monotonic() < end:
            self.step(plain, None, timed=True)
            tracer.install()
            try:
                self.step(traced, tracer, timed=True)
            finally:
                tracer.uninstall()
        return plain, traced

    def step(self, result: Pass, tracer, timed: bool) -> None:
        raise NotImplementedError

    def end_to_end(self, result: Pass) -> tuple[dict, list[str]]:
        raise NotImplementedError

    def _write_json(self, name: str, data) -> Path:
        path = self.work / name
        path.write_text(json.dumps(data, indent=1))
        return path


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _run_campaign(result: Pass, tracer, config, sequences, frames: int, fps: int) -> list:
    """One run_benchmark call into a fresh output directory; checks every run."""
    shutil.rmtree(config.output_dir, ignore_errors=True)
    runs = len(config.profiles) * len(config.sequences) * len(config.bitrates_kbps)
    try:
        with _span(tracer, "harness.run_benchmark"):
            records = harness.run_benchmark(config, sequences)
    except Exception as exc:  # counted, never fatal: the next campaign still runs
        done = len(list(config.output_dir.glob("*" + harness.RECORD_SUFFIX)))
        result.attempted += done + 1
        result.fail(exc)
        return []
    result.attempted += runs
    for r in records:
        base = harness.run_basename(r.profile_name, r.sequence_short_name,
                                    r.target_bitrate_kbps, r.mode, 0)
        result.problems += checks.check_run(
            r, frames, fps, config.output_dir / (base + harness.RECORD_SUFFIX),
            config.output_dir / (base + harness.OUTPUT_SUFFIX))
    return records


PIPE_REFERENCE_FRAMES = 8
PIPE_REFERENCE_NOMINAL_S = 30e-3
_ZERO_FRAME = memoryview(bytes(1920 * 1080 * 3 // 2))


def pipe_slowness(work: Path) -> float:
    """Slowness of a fixed pipe transfer: start the sink, write it eight 1080p frames, wait.

    Spawns and pipe hand-offs drift with the host differently from Python
    code, so the unpaced campaigns, which spawn sinks and feed them through
    pipes, and every set-up, which starts a fresh interpreter, are
    calibrated against this, not against the pure-Python loop.
    """
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-I", "-S", str(SINK), "--width", "1920", "--height", "1080",
         "--expect-frames", str(PIPE_REFERENCE_FRAMES), "--output", str(work / "reference.out")],
        stdin=subprocess.PIPE)
    try:
        for k in range(PIPE_REFERENCE_FRAMES):
            child.stdin.write(bytes([k % generate.TAG_MODULUS]))
            child.stdin.write(_ZERO_FRAME[1:])
    finally:
        child.stdin.close()
        status = child.wait()
    if status != 0:
        raise RuntimeError(f"reference sink exited with status {status}")
    return (time.perf_counter() - start) / PIPE_REFERENCE_NOMINAL_S


# --------------------------------------------------------------------------


class UnpacedFeed(Workload):
    """Closed loop: 1080p frames pushed as fast as the drain sink takes them."""

    name = "unpaced-feed"
    WIDTH, HEIGHT, FPS = 1920, 1080, 50
    FRAMES = 40
    RUNGS = (500, 1000, 2000)
    profile_names = ("drain-stdin_raw", "drain-stdin_y4m")
    setup_code = (
        "import sys\n"
        "from pacebench import dataset, harness\n"
        "dataset.load_manifest(sys.argv[1])\n"
        "for c in sys.argv[2:]: harness.load_benchmark_config(c)\n"
    )

    def generate(self) -> None:
        entries, self.config_paths = [], []
        for mode, short, suffix in (("stdin_raw", "UR50", ".yuv"), ("stdin_y4m", "UY50", ".y4m")):
            generate.write_source(self.work / (short + suffix), self.WIDTH, self.HEIGHT,
                                  self.FPS, self.FRAMES, self.seed)
            entries.append(generate.manifest_entry(short, short + suffix, self.WIDTH,
                                                   self.HEIGHT, self.FPS, self.FRAMES))
            profile = generate.sink_profile(f"drain-{mode}", SINK, sys.executable, mode,
                                            self.FRAMES)
            self.config_paths.append(self._write_json(f"bench-{short}.json", {
                "manifest": "manifest.json", "output_dir": f"runs-{short}",
                "profiles": [profile], "sequences": [short],
                "bitrates_kbps": list(self.RUNGS), "modes": ["unpaced"]}))
        self.manifest = self._write_json("manifest.json", entries)
        self.sequences = {s.short_name: s for s in dataset.load_manifest(self.manifest)}
        self.configs = [harness.load_benchmark_config(p) for p in self.config_paths]

    def setup_args(self) -> list[str]:
        return [str(self.manifest), *map(str, self.config_paths)]

    def slowness(self) -> float:
        return pipe_slowness(self.work)

    def step(self, result: Pass, tracer, timed: bool) -> None:
        """One campaign: every rung of the raw profile, then of the y4m profile."""
        frames, wall, cpu = 0, 0.0, 0.0
        for config in self.configs:
            with Stopwatch(self.slowness, result.readings()) as watch:
                records = _run_campaign(result, tracer, config, self.sequences, self.FRAMES,
                                        self.FPS)
            frames += sum(r.frames_in for r in records)
            wall, cpu = wall + watch.wall, cpu + watch.cpu
            if timed:
                for r in records:
                    result.add("run_ms_per_frame", 1e3 * r.wall_time_s / r.frames_in)
                    result.add(r.profile_name, 1e3 * r.wall_time_s / r.frames_in)
        if timed and frames:
            result.add("fps", frames / wall)
            result.add("cpu_ms_per_frame", 1e3 * cpu / frames)

    def end_to_end(self, result: Pass):
        s = result.samples
        fps = s.get("fps", [0.0])
        cpu = s.get("cpu_ms_per_frame", [0.0])
        per_run = s.get("run_ms_per_frame", [0.0])
        k = result.slowness()
        metrics = {
            "throughput_per_s": median(fps) * k,
            "latency_p50_ms": median(per_run) / k,
            "cpu_ms_per_item": median(cpu) / k,
        }
        lines = [
            _slowness_line(result),
            _line("unpaced_fps", metrics["throughput_per_s"], "frames/s",
                  f"median of {len(fps)} campaigns of {2 * len(self.RUNGS)} runs; "
                  f"raw {median(fps):.6g}"),
            _line("unpaced_cpu_ms_per_frame", metrics["cpu_ms_per_item"], "ms",
                  f"median of {len(cpu)} campaigns; raw {median(cpu):.6g}"),
            _line("unpaced_run_ms_per_frame", metrics["latency_p50_ms"], "ms",
                  "raw " + _timing_note(per_run, "ms")),
        ]
        lines += [_line(f"unpaced_run_ms_per_frame[{name}]", median(s[name]), "ms",
                        "raw " + _timing_note(s[name], "ms"))
                  for name in self.profile_names if name in s]
        return metrics, lines


# --------------------------------------------------------------------------


class PacedLive(Workload):
    """Open loop: 720p50 frames paced at capture rate into a drain sink (phase A)
    and into a sink that needs 25 ms per frame (phase B)."""

    name = "paced-live"
    WIDTH, HEIGHT, FPS = 1280, 720, 50
    COST_MS = 25.0
    RUNS_A = 4
    PHASE_B_SHARE = 0.14
    SPAWN_ALLOWANCE_S = 0.5
    setup_code = (
        "import sys\n"
        "from pacebench import dataset, harness, pacer\n"
        "dataset.load_manifest(sys.argv[1])\n"
        "for c in sys.argv[2:]: harness.load_benchmark_config(c)\n"
    )

    def generate(self) -> None:
        phase_b_s = self.PHASE_B_SHARE * self.seconds
        self.frames_b = max(2, round(phase_b_s * 1000.0 / self.COST_MS))
        phase_a_s = max(0.1, self.seconds - phase_b_s - self.SPAWN_ALLOWANCE_S)
        self.frames_a = max(2, math.ceil(phase_a_s * self.FPS / self.RUNS_A))
        total = max(self.frames_a, self.frames_b)
        generate.write_source(self.work / "live.yuv", self.WIDTH, self.HEIGHT, self.FPS,
                              total, self.seed)
        self.manifest = self._write_json("manifest.json", [
            generate.manifest_entry("LA50", "live.yuv", self.WIDTH, self.HEIGHT, self.FPS,
                                    self.frames_a),
            generate.manifest_entry("LB50", "live.yuv", self.WIDTH, self.HEIGHT, self.FPS,
                                    self.frames_b)])
        drain = generate.sink_profile("drain", SINK, sys.executable, "stdin_raw", self.frames_a)
        costly = generate.sink_profile("cost25", SINK, sys.executable, "stdin_raw",
                                       self.frames_b, cost_ms=self.COST_MS)
        rungs_a = [1000 + 500 * i for i in range(self.RUNS_A)]
        self.config_paths = [
            self._write_json("bench-a.json", {
                "manifest": "manifest.json", "output_dir": "runs-a", "profiles": [drain],
                "sequences": ["LA50"], "bitrates_kbps": rungs_a, "modes": ["paced"]}),
            self._write_json("bench-b.json", {
                "manifest": "manifest.json", "output_dir": "runs-b", "profiles": [costly],
                "sequences": ["LB50"], "bitrates_kbps": [1000], "modes": ["paced"]}),
        ]

    def setup_args(self) -> list[str]:
        return [str(self.manifest), *map(str, self.config_paths)]

    def run(self, tracer=None) -> Pass:
        result = Pass()
        sequences = {s.short_name: s for s in dataset.load_manifest(self.manifest)}
        config_a, config_b = (harness.load_benchmark_config(p) for p in self.config_paths)
        cpu0 = process_cpu_s()
        self.records_a = _run_campaign(result, tracer, config_a, sequences, self.frames_a,
                                       self.FPS)
        cpu_a = process_cpu_s() - cpu0
        self.records_b = _run_campaign(result, tracer, config_b, sequences, self.frames_b,
                                       self.FPS)
        frames_a = sum(r.frames_in for r in self.records_a)
        for r in self.records_a:
            result.samples.setdefault("lateness_ms", []).extend(
                1e3 * x for x in r.pacing.lateness_per_frame)
        if frames_a:
            result.add("cpu_ms_per_frame", 1e3 * cpu_a / frames_a)
        for r in self.records_b:
            result.add("backpressure_fps", r.throughput_fps)
        return result

    def run_traced(self, tracer) -> tuple[Pass, Pass]:
        """A whole untraced run, then a whole traced one: the phases cannot interleave."""
        plain = self.run()
        tracer.install()
        try:
            return plain, self.run(tracer)
        finally:
            tracer.uninstall()

    def end_to_end(self, result: Pass):
        s = result.samples
        lateness = s.get("lateness_ms", [0.0])
        p, tail_value = tail(lateness)
        metrics = {
            "throughput_per_s": median(s.get("backpressure_fps", [0.0])),
            "latency_p50_ms": median(lateness),
            "cpu_ms_per_item": median(s.get("cpu_ms_per_frame", [0.0])),
        }
        lines = [
            _line("paced_lateness_p50_ms", metrics["latency_p50_ms"], "ms",
                  f"{len(lateness)} keep-up frames"),
            _line(f"paced_lateness_p{p:g}_ms", tail_value, "ms",
                  f"{int(len(lateness) * (1 - p / 100.0))} frames beyond"),
            _line("paced_cpu_ms_per_frame", metrics["cpu_ms_per_item"], "ms",
                  "keep-up phase, process CPU"),
            _line("backpressure_fps", metrics["throughput_per_s"], "frames/s",
                  f"capacity {1000.0 / self.COST_MS:g} frames/s, "
                  f"{len(s.get('backpressure_fps', []))} run of {self.frames_b} frames"),
        ]
        return metrics, lines

    def pacer_metrics(self, tracer) -> dict:
        """Pacer per-layer numbers for the keep-up phase (A) and backpressure phase (B)."""
        interval = 1.0 / self.FPS
        runs_a = getattr(self, "records_a", [])
        reports_a = [r.pacing for r in runs_a]
        frames_a = sum(rep.frames_sent for rep in reports_a) or 1
        traced_a = tracer.paced_runs[:len(runs_a)]
        dispatch = [1e3 * (begin - (rep.start_epoch + k * den / num))
                    for writes, num, den, rep, _ in traced_a
                    for k, begin in enumerate(writes)]
        reports_b = [r.pacing for r in getattr(self, "records_b", [])]
        frames_b = sum(rep.frames_sent for rep in reports_b) or 1
        return {
            "pacer.thread_cpu_ms_per_frame": 1e3 * sum(c for *_, c in traced_a) / frames_a,
            "pacer.dispatch_ms_p50": median(dispatch),
            "pacer.blocked_ms_per_frame": 1e3 * sum(r.blocked_time_s for r in reports_a)
            / frames_a,
            "pacer.backpressure_blocked_ms_per_frame":
                1e3 * sum(r.blocked_time_s for r in reports_b) / frames_b,
            "pacer.startup_lateness_ms": median([1e3 * r.lateness_per_frame[0]
                                                 for r in reports_a]),
            "pacer.late_frame_ratio": sum(x > interval for r in reports_a
                                          for x in r.lateness_per_frame) / frames_a,
        }


# --------------------------------------------------------------------------


class ReportCampaign(Workload):
    """Batch: in-process ``pacebench report`` over generated campaign directories."""

    name = "report-campaign"
    COMPETITORS = 5
    PER_GROUP = 4
    FRAMES = 300
    setup_code = (
        "import sys\n"
        "from pacebench import cli, dataset\n"
        "dataset.load_manifest(sys.argv[1])\n"
    )
    # (kind, format): alternating so each kind is rendered both ways
    CYCLE = (("rate", "md"), ("quality", "csv"), ("rate", "csv"), ("quality", "md"))

    def generate(self) -> None:
        self.family = generate.campaign_family(self.seed, self.COMPETITORS, self.PER_GROUP)
        self.runs = self.work / "campaign"
        self.throughput = generate.write_campaign(self.runs, self.family, self.seed,
                                                  self.FRAMES)
        self.manifest = self._write_json(
            "manifest.json", generate.campaign_manifest(self.family, self.FRAMES))
        self.documents: dict = {}  # latest render per (kind, format), for agreement checks

    def setup_args(self) -> list[str]:
        return [str(self.manifest)]

    def invoke(self, kind: str, fmt: str) -> tuple[int, Path]:
        from pacebench import cli  # numeric stack: loaded only by the workloads using it

        out = self.work / f"matrix-{kind}.{fmt}"
        argv = ["--manifest", str(self.manifest), "report", "--runs", str(self.runs),
                "--anchor", self.family.anchor, "--kind", kind,
                "--format", fmt, "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):  # "wrote ..." progress lines
            return cli.dispatch(argv), out

    def step(self, result: Pass, tracer, timed: bool) -> None:
        """One ``pacebench report`` invocation; kinds and formats take turns."""
        kind, fmt = self.CYCLE[result.attempted % len(self.CYCLE)]
        result.attempted += 1
        if tracer is not None:
            tracer.new_run()
        try:
            with Stopwatch(self.slowness, result.readings()) as watch, \
                    _span(tracer, "cli.dispatch"):
                status, out = self.invoke(kind, fmt)
        except Exception as exc:  # counted, never fatal
            result.fail(exc)
            return
        if status != 0:
            result.fail(RuntimeError(f"report exited with status {status}"))
            return
        if timed:
            result.add("report_s", watch.wall)
            result.add("cpu_ms", 1e3 * watch.cpu)
        result.problems += self.check(kind, fmt, out.read_text())

    def check(self, kind: str, fmt: str, text: str) -> list[str]:
        documents = self.documents
        family = self.family
        problems = checks.check_document(text, fmt, family, kind)
        problems += checks.check_throughput_csv((self.runs / "throughput.csv").read_text(),
                                                self.throughput)
        curves = len(list((self.runs / "curves").glob("*.csv")))
        if curves != len(family.curves) * len(family.sequences):
            problems.append(f"{curves} curve CSVs written, expected one per profile and sequence")
        documents[(kind, fmt)] = text
        if (kind, "md") in documents and (kind, "csv") in documents:
            problems += checks.check_renders_agree(documents.pop((kind, "md")),
                                                   documents.pop((kind, "csv")))
        return problems

    def end_to_end(self, result: Pass):
        s = result.samples
        report_s, cpu = s.get("report_s", [0.0]), s.get("cpu_ms", [0.0])
        k = result.slowness()
        metrics = {
            "throughput_per_s": k / median(report_s) if median(report_s) else 0.0,
            "latency_p50_ms": 1e3 * median(report_s) / k,
            "cpu_ms_per_item": median(cpu) / k,
        }
        lines = [
            _slowness_line(result),
            _line("report_s", metrics["latency_p50_ms"] / 1e3, "s",
                  "raw " + _timing_note(report_s, "s")),
            _line("report_cpu_ms", metrics["cpu_ms_per_item"], "ms",
                  f"per invocation; raw {median(cpu):.6g}"),
        ]
        return metrics, lines


# --------------------------------------------------------------------------


class BdMatrix(Workload):
    """Batch: build and render comparison matrices over in-memory curve families."""

    name = "bd-matrix"
    COMPETITORS = 7
    PER_GROUP = 8
    VARIANTS = (("rate", {"method": "paper_area"}), ("rate", {"method": "log_domain"}),
                ("quality", {"rate_domain": "linear"}), ("quality", {"rate_domain": "log"}))
    setup_code = "from pacebench import bd, curves, report\n"

    def generate(self) -> None:
        from pacebench.curves import RateQualityCurve
        from pacebench.dataset import VideoSequence

        self.families, self.curves = {}, {}
        for kind in ("rate", "quality"):
            family = generate.curve_family(self.seed, kind, self.COMPETITORS, self.PER_GROUP)
            self.families[kind] = family
            self.curves[kind] = {
                prof: {seq: RateQualityCurve(spec.points, label=f"{prof}/{seq}")
                       for seq, spec in by_seq.items()}
                for prof, by_seq in family.curves.items()}
        family = self.families["rate"]
        self.sequences = [VideoSequence(name=seq, short_name=seq, fps_num=fps, fps_den=1,
                                        width=64, height=64, frame_count=1)
                          for seq, fps in family.sequences]

    def step(self, result: Pass, tracer, timed: bool) -> None:
        """One round: a matrix per BD variant, each rendered as Markdown and CSV."""
        from pacebench import report

        if tracer is not None:
            tracer.new_run()
        cells = 0
        elapsed = cpu = 0.0
        for kind, options in self.VARIANTS:
            family = self.families[kind]
            n_cells = len(family.expected_cells(kind))
            result.attempted += n_cells
            try:
                with Stopwatch(self.slowness, result.readings()) as watch:
                    matrix = report.build_matrix(self.curves[kind], self.sequences,
                                                 family.anchor, kind, **options)
                    md = report.render(matrix, "md")
                    csv_text = report.render(matrix, "csv")
            except Exception as exc:  # counted, never fatal
                result.fail(exc, ops=n_cells)
                continue
            elapsed += watch.wall
            cpu += watch.cpu
            cells += sum(v is not None for v in matrix.cells.values())
            result.problems += checks.check_document(md, "md", family, kind)
            result.problems += checks.check_document(csv_text, "csv", family, kind)
            result.problems += checks.check_renders_agree(md, csv_text)
        if timed and cells:
            result.add("cells_per_s", cells / elapsed)
            result.add("round_ms", 1e3 * elapsed)
            result.add("cpu_ms_per_cell", 1e3 * cpu / cells)

    def end_to_end(self, result: Pass):
        s = result.samples
        rounds, cells_per_s = s.get("round_ms", [0.0]), s.get("cells_per_s", [0.0])
        k = result.slowness()
        metrics = {
            "throughput_per_s": median(cells_per_s) * k,
            "latency_p50_ms": median(rounds) / k,
            "cpu_ms_per_item": median(s.get("cpu_ms_per_cell", [0.0])) / k,
        }
        lines = [
            _slowness_line(result),
            _line("bd_cells_per_s", metrics["throughput_per_s"], "cells/s",
                  f"median of {len(rounds)} rounds of {len(self.VARIANTS)} matrices; "
                  f"raw {median(cells_per_s):.6g}"),
            _line("bd_round_ms", metrics["latency_p50_ms"], "ms",
                  "raw " + _timing_note(rounds, "ms")),
        ]
        return metrics, lines


WORKLOADS = {w.name: w for w in (UnpacedFeed, PacedLive, ReportCampaign, BdMatrix)}
