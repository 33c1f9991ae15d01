"""The benchmark's own tests: generators are deterministic and every check is live.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pacebench import dataset, harness, report
from pacebench.curves import RateQualityCurve
from pacebench.dataset import VideoSequence
from pacebench.errors import EncoderRunError
from perfbench import checks, generate, measure, run, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]
W, H, FPS, FRAMES = 16, 16, 25, 6


def _source(tmp_path: Path, suffix: str = ".yuv", seed: int = 7) -> tuple[Path, VideoSequence]:
    path = tmp_path / f"src{suffix}"
    generate.write_source(path, W, H, FPS, FRAMES, seed)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([generate.manifest_entry("T25", path.name, W, H, FPS,
                                                            FRAMES)]))
    return path, dataset.load_manifest(manifest)[0]


def _profile(mode: str = "stdin_raw", frames: int = FRAMES) -> harness.EncoderProfile:
    return harness.EncoderProfile.from_dict(
        generate.sink_profile("sink", workloads.SINK, sys.executable, mode, frames))


def _config(tmp_path: Path, profile: harness.EncoderProfile) -> harness.BenchmarkConfig:
    return harness.BenchmarkConfig(profiles=(profile,), sequences=("T25",),
                                   bitrates_kbps=(300, 600), modes=("unpaced",),
                                   output_dir=tmp_path / "runs")


def _family(kind: str) -> generate.CurveFamily:
    return generate.curve_family(3, kind, competitors=3, per_group=2)


def _render(family: generate.CurveFamily, kind: str, fmt: str, **options) -> str:
    curves = {prof: {seq: RateQualityCurve(spec.points) for seq, spec in by_seq.items()}
              for prof, by_seq in family.curves.items()}
    sequences = [VideoSequence(name=s, short_name=s, fps_num=f, fps_den=1, width=2, height=2,
                               frame_count=1) for s, f in family.sequences]
    matrix = report.build_matrix(curves, sequences, family.anchor, kind, **options)
    return report.render(matrix, fmt)


# -- generators -------------------------------------------------------------


@pytest.mark.parametrize("suffix", [".yuv", ".y4m"])
def test_sources_are_deterministic_and_tagged(tmp_path, suffix):
    made = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / name).mkdir()
        made.append(_source(tmp_path / name, suffix, seed))
    (a, seq), (b, _), (c, _) = made
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    with dataset.open_frame_reader(a, seq) as reader:
        tags = [frame.payload[0] for frame in reader]
    assert tags == [k % generate.TAG_MODULUS for k in range(FRAMES)]


def test_campaign_and_curves_are_deterministic(tmp_path):
    family = generate.campaign_family(5, competitors=2, per_group=1)
    assert family == generate.campaign_family(5, competitors=2, per_group=1)
    assert _family("rate") == _family("rate")
    oracle_a = generate.write_campaign(tmp_path / "a", family, 5, frames=4)
    oracle_b = generate.write_campaign(tmp_path / "b", family, 5, frames=4)
    assert oracle_a == oracle_b
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert all((tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
               for n in names)


def test_frame_scores_average_exactly_to_pooled(tmp_path):
    import random
    from pacebench import quality

    log = generate.vmaf_log(random.Random(1), generate._quantize(61.3), 300)
    path = tmp_path / "q.json"
    path.write_text(json.dumps(log))
    parsed = quality.parse_metric_report(path)
    assert parsed.pooled_score == sum(parsed.per_frame_scores) / 300


# -- harness runs through the sink -------------------------------------------


@pytest.mark.parametrize("mode,suffix", [("stdin_raw", ".yuv"), ("stdin_y4m", ".y4m")])
def test_clean_run_passes_every_check(tmp_path, mode, suffix):
    _, seq = _source(tmp_path, suffix)
    result = workloads.Pass()
    records = workloads._run_campaign(result, None, _config(tmp_path, _profile(mode)),
                                      {"T25": seq}, FRAMES, FPS)
    assert len(records) == 2 and result.attempted == 2
    assert result.failed == 0 and result.problems == []


def test_corrupted_frame_tag_is_reported(tmp_path):
    path, seq = _source(tmp_path)
    data = bytearray(path.read_bytes())
    data[3 * seq.frame_bytes] ^= 0xFF  # frame 3's tag byte
    path.write_bytes(bytes(data))
    with pytest.raises(EncoderRunError, match="frame 3 carries tag"):
        harness.run_unpaced(_profile(), seq, 300, output_path=tmp_path / "out.bin")
    result = workloads.Pass()
    workloads._run_campaign(result, None, _config(tmp_path, _profile()), {"T25": seq},
                            FRAMES, FPS)
    assert result.failed == 1 and result.attempted == 1


def test_failing_sink_is_counted_not_fatal(tmp_path):
    _, seq = _source(tmp_path)
    result = workloads.Pass()
    expects_more = _profile(frames=FRAMES + 1)
    records = workloads._run_campaign(result, None, _config(tmp_path, expects_more),
                                      {"T25": seq}, FRAMES, FPS)
    assert records == [] and result.failed == 1
    assert "received 6 frames, expected 7" in result.errors[0]


def test_wrong_output_size_is_reported(tmp_path):
    _, seq = _source(tmp_path)
    result = workloads.Pass()
    records = workloads._run_campaign(result, None, _config(tmp_path, _profile()),
                                      {"T25": seq}, FRAMES, FPS)
    record = records[0]
    base = harness.run_basename(record.profile_name, "T25", record.target_bitrate_kbps,
                                record.mode, 0)
    runs = tmp_path / "runs"
    problems = checks.check_run(record, FRAMES + 1, FPS, runs / (base + ".json"),
                                runs / (base + ".bin"))
    assert any("frames_in" in p for p in problems)
    assert any("output_size_bytes" in p for p in problems)


# -- matrix oracles ----------------------------------------------------------


VARIANTS = [("rate", {"method": "paper_area"}), ("rate", {"method": "log_domain"}),
            ("quality", {"rate_domain": "linear"}), ("quality", {"rate_domain": "log"})]


@pytest.mark.parametrize("kind,options", VARIANTS)
def test_closed_forms_hold_and_perturbation_is_reported(kind, options):
    family = _family(kind)
    md = _render(family, kind, "md", **options)
    csv_text = _render(family, kind, "csv", **options)
    assert checks.check_document(csv_text, "csv", family, kind) == []
    assert checks.check_document(md, "md", family, kind) == []
    assert checks.check_renders_agree(md, csv_text) == []
    assert any(v is None for v in family.expected_cells(kind).values())

    seq, spec = next(iter(family.curves["enc0"].items()))
    perturbed = {kind: spec.expected[kind] + 1e-5}
    family.curves["enc0"][seq] = generate.CurveSpec(spec.points, perturbed)
    problems = checks.check_document(csv_text, "csv", family, kind)
    assert len(problems) == 2  # the cell and its group average
    assert "closed form" in problems[0]


@pytest.mark.parametrize("kind,options", VARIANTS)
def test_campaign_family_has_closed_forms_for_both_kinds(kind, options):
    family = generate.campaign_family(4, competitors=3, per_group=2)
    csv_text = _render(family, kind, "csv", **options)
    assert checks.check_document(csv_text, "csv", family, kind) == []


def test_render_disagreement_is_reported():
    family = _family("quality")
    md, csv_text = _render(family, "quality", "md"), _render(family, "quality", "csv")
    first_value = csv_text.splitlines()[1].split(",")[1]
    tampered = csv_text.replace(first_value, repr(float(first_value) + 0.5), 1)
    assert checks.check_renders_agree(md, tampered)


def test_report_campaign_checks_throughput(tmp_path):
    family = generate.campaign_family(1, competitors=2, per_group=2)
    oracle = generate.write_campaign(tmp_path, family, 1, frames=4)
    text = "profile,mode,fps_group,bitrate_kbps,mean_fps,std_fps\n"
    text += "\n".join(f"{p},{m},{g},{b!r},{sum(v) / len(v)!r},0.0"
                      for (p, m, g, b), v in oracle.items())
    problems = checks.check_throughput_csv(text, oracle)
    assert problems  # the std column is wrong for every group of two or more
    assert "throughput" in problems[0]


# -- the command -------------------------------------------------------------


def test_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    readme = (ROOT / "perfbench" / "README.md").read_text()
    documented = {name: (unit, float(bound)) for name, unit, bound
                  in re.findall(r"\| `(\w+)` \(([^,]+), ([0-9.]+)\) \|", readme)}
    assert documented == {m["name"]: (m["unit"], m["bound"]) for m in spec["end_to_end"]}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bd-matrix",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_stopwatch_reads_the_reference_around_each_block():
    readings: list[float] = []
    for _ in range(2):
        with measure.Stopwatch(measure.python_slowness, readings) as watch:
            measure.python_slowness()
        assert watch.wall > 0 and watch.cpu >= 0
    assert len(readings) == 4 and all(r > 0 for r in readings)


def test_layer_shares_leave_out_the_pacers_sleep():
    spans = [tracing.Span("harness.run", 0.0, 10.0, -1, 1),
             tracing.Span("pacer.run_paced", 1.0, 9.0, 0, 1),
             tracing.Span("idle.sleep", 2.0, 8.0, 1, 1)]
    trace = tracing.Trace(spans, {})
    assert trace.busy_seconds() == pytest.approx(4.0)
    assert trace.layer_self_seconds()["pacer"] == pytest.approx(2.0)
