"""Test helpers: synthetic sequences and sources, mock encoder profiles, and
the dense-trapezoid BD oracle.

A module with its own name, so that ``from synthetic import ...`` finds it
whichever ``conftest.py`` pytest loaded last.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from pacebench.bd import common_range, interpolate, prune_monotone
from pacebench.dataset import VideoSequence, build_y4m_header
from pacebench.harness import EncoderProfile


def make_sequence(
    *,
    short_name: str = "SY25",
    name: str = "synthetic",
    fps_num: int = 25,
    fps_den: int = 1,
    width: int = 2,
    height: int = 2,
    frame_count: int = 10,
    path: Path | None = None,
    duration_s: float | None = None,
) -> VideoSequence:
    return VideoSequence(
        name=name,
        short_name=short_name,
        fps_num=fps_num,
        fps_den=fps_den,
        width=width,
        height=height,
        frame_count=frame_count,
        duration_s=duration_s,
        path=path,
    )


def frame_payload(seq: VideoSequence, index: int) -> bytes:
    return bytes([index % 251]) * seq.frame_bytes


def write_raw_source(path: Path, seq: VideoSequence) -> Path:
    with open(path, "wb") as fh:
        for k in range(seq.frame_count):
            fh.write(frame_payload(seq, k))
    return path


def write_y4m_source(path: Path, seq: VideoSequence) -> Path:
    with open(path, "wb") as fh:
        fh.write(build_y4m_header(seq.width, seq.height, seq.fps_num, seq.fps_den))
        for k in range(seq.frame_count):
            fh.write(b"FRAME\n")
            fh.write(frame_payload(seq, k))
    return path


def write_manifest(tmp_path: Path, sequences) -> Path:
    entries = []
    for seq in sequences:
        entries.append({
            "name": seq.name,
            "short_name": seq.short_name,
            "path": str(seq.path),
            "fps_num": seq.fps_num,
            "fps_den": seq.fps_den,
            "width": seq.width,
            "height": seq.height,
            "pixel_format": seq.pixel_format.value,
            "frame_count": seq.frame_count,
        })
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(entries))
    return path


def mock_template(*extra: str) -> tuple[str, ...]:
    return (
        sys.executable,
        "-m",
        "pacebench.mock_encoder",
        "--width", "{width}",
        "--height", "{height}",
        "--kbps", "{bitrate_kbps}",
        "--fps", "{fps}",
        *extra,
    )


def mock_profile(
    name: str = "mock",
    *extra: str,
    input_mode: str = "stdin_raw",
    output_mode: str = "file",
) -> EncoderProfile:
    template = mock_template(*extra)
    if output_mode == "file":
        template = template + ("--output", "{output}")
    else:
        template = template + ("--output", "-")
    return EncoderProfile(
        name=name,
        command_template=template,
        input_mode=input_mode,
        output_mode=output_mode,
    )


# Independent BD oracle: dense trapezoid integration over the same interpolant
# (the package's interpolate()), never the package's quadrature. numpy is
# imported here, not at the top, so that the other helpers do not need it.

def trapezoid_bd_rate(test, ref, method, panels=10**6):
    import numpy as np

    t, r = prune_monotone(test), prune_monotone(ref)
    span = common_range(t, r, "quality")
    qs = np.linspace(span.lo, span.hi, panels + 1)
    rate_t = interpolate(t, "quality", qs)
    rate_r = interpolate(r, "quality", qs)
    if method == "paper_area":
        area_t = np.trapezoid(rate_t, qs)
        area_r = np.trapezoid(rate_r, qs)
        return 100.0 * (area_t - area_r) / area_r
    mean_delta = np.trapezoid(np.log10(rate_t) - np.log10(rate_r), qs) / (span.hi - span.lo)
    return 100.0 * (10.0 ** mean_delta - 1.0)


def trapezoid_bd_quality(test, ref, rate_domain, panels=10**6):
    import numpy as np

    t, r = prune_monotone(test), prune_monotone(ref)
    span = common_range(t, r, "rate")
    if rate_domain == "linear":
        xs = np.linspace(span.lo, span.hi, panels + 1)
        rates = xs
    else:
        xs = np.linspace(math.log10(span.lo), math.log10(span.hi), panels + 1)
        rates = np.clip(10.0 ** xs, span.lo, span.hi)
    delta = np.subtract(interpolate(t, "rate", rates), interpolate(r, "rate", rates))
    return np.trapezoid(delta, xs) / (xs[-1] - xs[0])
