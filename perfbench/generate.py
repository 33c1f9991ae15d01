"""Seeded input generators: tagged I420 sources, campaign directories, curve families.

Every generator is a pure function of its seed: the same seed writes the
same bytes. Each generator also returns the closed-form answer the
benchmark checks the program's output against.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path

TAG_MODULUS = 251
# Sources are built from one random block read at seeded offsets, so frames
# differ without generating every byte.
_OFFSET_SPAN = 4096

LADDER_KBPS = (250, 400, 600, 900, 1300, 1900, 2800, 4000, 5600, 8000)
FPS_GROUPS = (25, 50, 60)
# Quality values and per-frame deviations are multiples of this, so a frame
# list sums exactly and its mean equals the pooled score bit for bit.
_QUALITY_QUANTUM = 1.0 / 64.0


# --------------------------------------------------------------------------
# I420 sources


def y4m_header(width: int, height: int, fps: int) -> bytes:
    return b"YUV4MPEG2 W%d H%d F%d:1 Ip A1:1 C420\n" % (width, height, fps)


def write_source(path: Path, width: int, height: int, fps: int, frames: int,
                 seed: int) -> None:
    """Write an I420 source as .yuv (headerless) or .y4m (by suffix).

    Byte 0 of frame k is ``k % 251``; the rest is seeded noise. The file is
    synced before returning, so its write-back does not overlap the measurement.
    """
    frame_bytes = width * height * 3 // 2
    rng = random.Random(seed)
    block = memoryview(rng.randbytes(frame_bytes + _OFFSET_SPAN))
    y4m = path.suffix == ".y4m"
    with open(path, "wb") as out:
        if y4m:
            out.write(y4m_header(width, height, fps))
        for k in range(frames):
            offset = rng.randrange(_OFFSET_SPAN)
            if y4m:
                out.write(b"FRAME\n")
            out.write(bytes((k % TAG_MODULUS,)))
            out.write(block[offset + 1: offset + frame_bytes])
        out.flush()
        os.fsync(out.fileno())


def manifest_entry(short_name: str, path: str, width: int, height: int, fps: int,
                   frames: int) -> dict:
    return {
        "name": f"generated {short_name}", "short_name": short_name, "path": path,
        "fps_num": fps, "fps_den": 1, "width": width, "height": height,
        "pixel_format": "I420_8bit", "frame_count": frames,
    }


def sink_profile(name: str, sink_path: Path, python: str, input_mode: str,
                 frames: int, cost_ms: float = 0.0) -> dict:
    """An encoder profile whose command runs the benchmark's sink."""
    template = [python, "-I", "-S", str(sink_path),
                "--cost-ms", repr(cost_ms),
                "--format", "y4m" if input_mode == "stdin_y4m" else "raw",
                "--width", "{width}", "--height", "{height}",
                "--kbps", "{bitrate_kbps}", "--fps", "{fps}",
                "--expect-frames", str(frames), "--output", "{output}"]
    return {"name": name, "input_mode": input_mode, "output_mode": "file",
            "command_template": template}


def expected_output_bytes(kbps: float, fps: int, frames: int) -> int:
    """The sink's output size for a run (mirrors its sizing rule)."""
    return frames * round(kbps * 1000.0 / 8.0 / fps)


# --------------------------------------------------------------------------
# Curve families with closed-form BD answers


@dataclass(frozen=True)
class CurveSpec:
    """Points of one curve plus the matrix cells it implies against the anchor.

    ``expected`` maps a matrix kind ("rate" or "quality") to the BD value of
    the anchor (test) against this curve (reference); None marks a cell the
    program must leave undefined. Kinds without a closed form are absent.
    """

    points: tuple[tuple[float, float], ...]
    expected: dict


def _quantize(q: float) -> float:
    return round(q / _QUALITY_QUANTUM) * _QUALITY_QUANTUM


def concave_anchor(rng: random.Random) -> tuple[tuple[float, float], ...]:
    """A strictly increasing, concave rate-quality curve on the ladder."""
    lo = rng.uniform(25.0, 40.0)
    hi = rng.uniform(78.0, 86.0)
    shape = rng.uniform(0.5, 0.9)
    span = math.log(LADDER_KBPS[-1] / LADDER_KBPS[0])
    points = []
    for kbps in LADDER_KBPS:
        rate = kbps * rng.uniform(0.97, 1.03)
        x = math.log(rate / (LADDER_KBPS[0] * 0.97)) / span
        points.append((rate, _quantize(lo + (hi - lo) * min(1.0, x) ** shape)))
    return tuple(points)


def log_linear_anchor(rng: random.Random) -> tuple[tuple[tuple[float, float], ...], float]:
    """Points with quality exactly linear in log10(rate), and that slope.

    The monotone cubic reproduces linear data exactly, so a quality-shifted
    copy of this curve has closed-form cells for both matrix kinds.
    """
    slope = rng.uniform(25.0, 32.0)   # quality points per decade of rate
    q0 = _quantize(rng.uniform(25.0, 35.0))
    points = []
    for kbps in LADDER_KBPS:
        q = _quantize(q0 + slope * math.log10(kbps * rng.uniform(0.97, 1.03) / LADDER_KBPS[0]))
        points.append((LADDER_KBPS[0] * 10.0 ** ((q - q0) / slope), q))
    return tuple(points), slope


def rate_scaled(anchor, k: float) -> CurveSpec:
    """Rates divided by k: the anchor needs k times the rate, BD-rate = 100(k-1)."""
    return CurveSpec(tuple((r / k, q) for r, q in anchor), {"rate": 100.0 * (k - 1.0)})


def quality_shifted(anchor, d: float, slope: float | None = None) -> CurveSpec:
    """Qualities raised by d: the anchor scores d lower, BD-quality = -d.

    On a log-linear anchor of ``slope`` points per decade the anchor also
    needs 10**(d / slope) times the rate at equal quality.
    """
    expected = {"quality": -d}
    if slope is not None:
        expected["rate"] = 100.0 * (10.0 ** (d / slope) - 1.0)
    return CurveSpec(tuple((r, q + d) for r, q in anchor), expected)


def disjoint(anchor, kind: str) -> CurveSpec:
    """A curve sharing no range with the anchor on the integration axis."""
    if kind == "rate":  # qualities above the anchor's: no common quality range
        return CurveSpec(tuple((r, q + 100.0) for r, q in anchor), {"rate": None})
    return CurveSpec(tuple((r * 100.0, q) for r, q in anchor), {"quality": None})


@dataclass(frozen=True)
class CurveFamily:
    """curves[profile][sequence] -> CurveSpec, compared against ``anchor``."""

    anchor: str
    sequences: tuple[tuple[str, int], ...]   # (short name, fps)
    curves: dict

    def expected_cells(self, kind: str) -> dict:
        return {(seq, prof): spec.expected[kind]
                for prof, by_seq in self.curves.items() if prof != self.anchor
                for seq, spec in by_seq.items()}

    def expected_averages(self, kind: str) -> dict:
        """(fps group label, competitor) -> mean of its cells, None if any undefined."""
        cells = self.expected_cells(kind)
        out = {}
        for fps in sorted({fps for _, fps in self.sequences}):
            names = [s for s, f in self.sequences if f == fps]
            for prof in self.curves:
                if prof == self.anchor:
                    continue
                values = [cells[(s, prof)] for s in names]
                out[(str(fps), prof)] = (None if any(v is None for v in values)
                                         else math.fsum(values) / len(values))
        return out


def _family(seed, label: str, competitors: int, per_group: int, make_curves) -> CurveFamily:
    rng = random.Random(f"{seed}:{label}")
    sequences = tuple((f"G{fps}S{i:02d}", fps) for fps in FPS_GROUPS for i in range(per_group))
    names = [f"enc{j}" for j in range(competitors)]
    curves: dict = {"anchor": {}, **{name: {} for name in names}}
    for seq, fps in sequences:
        anchor, others = make_curves(rng, fps)
        curves["anchor"][seq] = CurveSpec(anchor, {})
        for name, spec in zip(names, others):
            curves[name][seq] = spec
    return CurveFamily("anchor", sequences, curves)


def curve_family(seed: int, kind: str, competitors: int, per_group: int) -> CurveFamily:
    """Concave anchors plus competitors with closed-form cells for one kind.

    ``kind`` "rate" makes rate-scaled competitors, "quality" quality-shifted
    ones. The last competitor is disjoint from the anchor on the sequences of
    the last fps group (so those cells and that group's average are undefined).
    """
    def make(rng, fps):
        base = concave_anchor(rng)
        others = []
        for j in range(competitors):
            if j == competitors - 1 and fps == FPS_GROUPS[-1]:
                others.append(disjoint(base, kind))
            elif kind == "rate":
                others.append(rate_scaled(base, rng.uniform(0.7, 1.4)))
            else:
                others.append(quality_shifted(base, _quantize(rng.uniform(-8.0, 8.0))))
        return base, others

    return _family(seed, kind, competitors, per_group, make)


def campaign_family(seed: int, competitors: int, per_group: int) -> CurveFamily:
    """Log-linear anchors with quality-shifted competitors: closed forms for both kinds."""
    def make(rng, fps):
        base, slope = log_linear_anchor(rng)
        return base, [quality_shifted(base, _quantize(rng.uniform(-8.0, 8.0)), slope)
                      for _ in range(competitors)]

    return _family(seed, "campaign", competitors, per_group, make)


# --------------------------------------------------------------------------
# Campaign directories for ``pacebench report``


def _frame_scores(rng: random.Random, pooled: float, frames: int) -> list[float]:
    """Per-frame scores in +/- pairs around ``pooled``: their mean is exactly pooled."""
    scores = []
    for _ in range(frames // 2):
        dev = _quantize(rng.uniform(0.0, 4.0))
        scores += [pooled + dev, pooled - dev]
    rng.shuffle(scores)
    return scores


def vmaf_log(rng: random.Random, pooled: float, frames: int) -> dict:
    """A quality report in the external VMAF log layout."""
    scores = _frame_scores(rng, pooled, frames)
    return {
        "version": "generated",
        "frames": [
            {"frameNum": i, "metrics": {"psnr_y": 10.0 + s / 2.0, "vmaf": s}}
            for i, s in enumerate(scores)
        ],
        "pooled_metrics": {"vmaf": {"min": min(scores), "max": max(scores), "mean": pooled}},
    }


def write_campaign(out_dir: Path, family: CurveFamily, seed: int, frames: int) -> dict:
    """Write run records and quality reports whose curves are ``family``'s.

    Every (profile, sequence, rung) has an unpaced and a paced record; paced
    ones carry per-frame lateness. Returns the throughput oracle:
    (profile, mode, fps group, target kbps) -> list of throughput values.
    """
    rng = random.Random(f"{seed}:campaign-runs")
    out_dir.mkdir(parents=True, exist_ok=True)
    fps_of = dict(family.sequences)
    throughput: dict = {}
    for prof, by_seq in family.curves.items():
        for seq, spec in by_seq.items():
            fps = fps_of[seq]
            duration = frames / fps
            for target, (rate, quality) in zip(LADDER_KBPS, spec.points):
                for mode in ("unpaced", "paced"):
                    fps_measured = (rng.uniform(0.9, 1.0) * fps if mode == "paced"
                                    else rng.uniform(40.0, 400.0))
                    pacing = None
                    if mode == "paced":
                        pacing = {
                            "frames_sent": frames,
                            "total_duration_s": duration,
                            "lateness_per_frame": [round(rng.uniform(0.0, 0.004), 6)
                                                   for _ in range(frames)],
                            "blocked_time_s": rng.uniform(0.0, 0.5),
                            "start_epoch": 1000.0,
                        }
                    record = {
                        "profile_name": prof, "sequence_short_name": seq,
                        "target_bitrate_kbps": float(target), "mode": mode,
                        "wall_time_s": frames / fps_measured, "frames_in": frames,
                        "throughput_fps": fps_measured,
                        "output_size_bytes": round(rate * 1000.0 * duration / 8.0),
                        "achieved_bitrate_kbps": rate, "exit_status": 0, "pacing": pacing,
                    }
                    base = f"{prof}__{seq}__{target}__{mode}__rep0"
                    (out_dir / f"{base}.json").write_text(json.dumps(record))
                    (out_dir / f"{base}.quality.json").write_text(
                        json.dumps(vmaf_log(rng, quality, frames)))
                    throughput.setdefault((prof, mode, str(fps), float(target)), []).append(
                        fps_measured)
    return throughput


def campaign_manifest(family: CurveFamily, frames: int) -> list[dict]:
    return [manifest_entry(seq, f"{seq}.yuv", 64, 64, fps, frames)
            for seq, fps in family.sequences]
