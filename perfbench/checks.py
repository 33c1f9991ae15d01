"""Output checks: every result the benchmark measures is compared with its oracle.

Each function returns a list of mismatch descriptions; empty means correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from . import generate

CELL_TOLERANCE = 1e-6
MD_UNDEFINED = "—"


def check_run(record, frames: int, fps: int, record_path: Path, output_path: Path) -> list[str]:
    """One harness run: every frame delivered, sink succeeded, output of the known size."""
    where = f"{record.profile_name}/{record.sequence_short_name}@{record.target_bitrate_kbps:g}"
    problems = []
    expected = generate.expected_output_bytes(record.target_bitrate_kbps, fps, frames)
    if record.frames_in != frames:
        problems.append(f"{where}: frames_in {record.frames_in} != {frames}")
    if record.exit_status != 0:
        problems.append(f"{where}: sink exit status {record.exit_status}")
    if record.output_size_bytes != expected:
        problems.append(f"{where}: output_size_bytes {record.output_size_bytes} != {expected}")
    if not output_path.exists() or output_path.stat().st_size != expected:
        problems.append(f"{where}: output file {output_path.name} missing or wrong size")
    if record.pacing is not None and (
        record.pacing.frames_sent != frames or len(record.pacing.lateness_per_frame) != frames
    ):
        problems.append(f"{where}: pacing report covers {record.pacing.frames_sent} frames")
    try:
        persisted = json.loads(record_path.read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"{where}: persisted record unreadable: {exc}")
    else:
        if persisted != json.loads(json.dumps(record.to_dict())):
            problems.append(f"{where}: persisted record differs from the returned one")
    return problems


def parse_document(text: str, fmt: str) -> dict:
    """(row label, competitor) -> float, or None for an undefined cell."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        header, body = rows[0][1:], rows[1:]
        undefined = ""
    else:
        rows = [[c.strip() for c in line.strip().strip("|").split("|")]
                for line in text.splitlines() if line.startswith("|")]
        header, body = rows[0][1:], rows[2:]
        undefined = MD_UNDEFINED
    cells = {}
    for row in body:
        for competitor, raw in zip(header, row[1:]):
            cells[(row[0], competitor)] = None if raw == undefined else float(raw)
    return cells


def check_document(text: str, fmt: str, family: generate.CurveFamily, kind: str) -> list[str]:
    """Every cell and group average of a ``kind`` matrix against its closed form."""
    expected = dict(family.expected_cells(kind))
    for (group, competitor), value in family.expected_averages(kind).items():
        expected[(f"Avg {group}", competitor)] = value
    try:
        got = parse_document(text, fmt)
    except (ValueError, IndexError) as exc:
        return [f"{fmt} document does not parse: {exc}"]
    if set(got) != set(expected):
        return [f"{fmt} document has cells {sorted(set(got) ^ set(expected))[:4]} "
                "that the oracle does not (or vice versa)"]
    # Markdown shows two decimals; CSV keeps full precision.
    tolerance = CELL_TOLERANCE + (0.005 if fmt != "csv" else 0.0)
    problems = []
    for key, want in expected.items():
        have = got[key]
        if (want is None) != (have is None) or (
            want is not None and not abs(have - want) <= tolerance
        ):
            problems.append(f"{fmt} cell {key}: got {have}, closed form {want}")
    return problems


def check_renders_agree(md_text: str, csv_text: str) -> list[str]:
    md = parse_document(md_text, "md")
    full = parse_document(csv_text, "csv")
    if set(md) != set(full):
        return ["markdown and csv renders have different cells"]
    return [f"cell {key}: markdown {md[key]} vs csv {full[key]}"
            for key in full
            if (md[key] is None) != (full[key] is None)
            or (full[key] is not None and md[key] != float(f"{full[key]:.2f}"))]


def check_throughput_csv(text: str, oracle: dict) -> list[str]:
    """Mean and sample std throughput per group against the generated values."""
    rows = list(csv.DictReader(io.StringIO(text)))
    got = {(r["profile"], r["mode"], r["fps_group"], float(r["bitrate_kbps"])):
           (float(r["mean_fps"]), float(r["std_fps"])) for r in rows}
    if set(got) != set(oracle):
        return [f"throughput.csv has {len(got)} groups, expected {len(oracle)}"]
    problems = []
    for key, values in oracle.items():
        mean = math.fsum(values) / len(values)
        std = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1))
        have_mean, have_std = got[key]
        if not (math.isclose(have_mean, mean, rel_tol=1e-9)
                and math.isclose(have_std, std, rel_tol=1e-9, abs_tol=1e-9)):
            problems.append(f"throughput {key}: got {got[key]}, expected {(mean, std)}")
    return problems
