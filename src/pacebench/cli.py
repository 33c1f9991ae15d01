"""Single executable with pace, bench, bd, and report subcommands.

Exit codes are frozen for scripting:

* 0  success
* 1  computation errors (no common range, degenerate curve, truncated data, ...)
* 2  usage and configuration errors
* 3  child-process (encoder / metric tool) failure

Every failure also prints one machine-readable line to stderr:
``error: <code>: <message>``.
"""

from __future__ import annotations

import argparse
import logging
import os
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

from . import dataset, harness, pacer, quality
from .curves import load_curve_csv, save_curve_csv
from .errors import (
    ComputationError,
    ConfigError,
    EncoderRunError,
    PacebenchError,
)
from .framerate import parse_fps
from .harness import QUALITY_SUFFIX, RECORD_SUFFIX, RunMode, RunRecord
from .ioutil import atomic_write_text

log = logging.getLogger("pacebench")

EXIT_OK = 0
EXIT_COMPUTATION = 1
EXIT_USAGE = 2
EXIT_CHILD = 3

LOG_ENV_VAR = "PACEBENCH_LOG"


@dataclass
class GlobalOptions:
    verbosity: int = 0
    manifest_path: Path | None = None
    color: str = "auto"

    def use_color(self) -> bool:
        if self.color == "always":
            return True
        if self.color == "never":
            return False
        return sys.stderr.isatty()


def _configure_logging(verbosity: int) -> None:
    level = {0: logging.WARNING, 1: logging.INFO}.get(verbosity, logging.DEBUG)
    env = os.environ.get(LOG_ENV_VAR)
    if env:
        level = getattr(logging, env.upper(), level)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _parse_only(text: str | None) -> dict[str, str]:
    if not text:
        return {}
    selections: dict[str, str] = {}
    for pair in text.split(","):
        key, sep, value = pair.partition("=")
        if not sep or not value:
            raise ConfigError(f"--only expects key=value pairs, got {pair!r}")
        selections[key.strip()] = value.strip()
    return selections


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pacebench",
        description="Benchmark video encoders under real-time (paced) and "
        "maximum-throughput frame delivery, and compare them with "
        "BD rate-quality deltas.",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0)
    parser.add_argument("--manifest", type=Path, default=None,
                        help="sequence manifest (JSON array)")
    parser.add_argument("--color", choices=("auto", "always", "never"), default="auto")
    sub = parser.add_subparsers(dest="command", required=True)

    pace = sub.add_parser("pace", help="deliver frames to a sink at the capture rate")
    pace.add_argument("--input", type=Path, required=True, help="source .y4m or .yuv file")
    pace.add_argument("--manifest", type=Path, default=argparse.SUPPRESS)
    pace.add_argument("--seq", required=True, help="sequence short name from the manifest")
    pace.add_argument("--fps-override", metavar="N/D", default=None,
                      help="pace at this rate instead of the sequence's native rate")
    pace.add_argument("--out", required=True, help="output path, or '-' for stdout")
    pace.set_defaults(func=cmd_pace)

    bench = sub.add_parser("bench", help="run an encoder benchmark campaign")
    bench.add_argument("--config", type=Path, required=True)
    bench.add_argument("--manifest", type=Path, default=argparse.SUPPRESS)
    bench.add_argument("--mode", choices=("paced", "unpaced", "both"), default=None,
                       help="override the config's mode set")
    bench.add_argument("--only", default=None, metavar="profile=..,seq=..",
                       help="restrict to one profile and/or sequence")
    bench.set_defaults(func=cmd_bench)

    bd = sub.add_parser("bd", help="BD delta between two curve CSV files")
    bd.add_argument("--ref", type=Path, required=True, help="reference curve CSV")
    bd.add_argument("--test", type=Path, required=True, help="test curve CSV")
    bd.add_argument("--kind", choices=("rate", "quality"), required=True)
    bd.add_argument("--method", choices=("paper-area", "log-domain"), default="paper-area",
                    help="bd-rate computation mode")
    bd.add_argument("--rate-domain", choices=("linear", "log"), default="linear",
                    help="bd-quality integration axis")
    bd.set_defaults(func=cmd_bd)

    report = sub.add_parser("report", help="aggregate run records into a comparison matrix")
    report.add_argument("--runs", type=Path, required=True, help="bench output directory")
    report.add_argument("--manifest", type=Path, default=argparse.SUPPRESS)
    report.add_argument("--anchor", required=True, help="profile the matrix compares against")
    report.add_argument("--kind", choices=("rate", "quality"), required=True)
    report.add_argument("--format", choices=("md", "csv"), required=True)
    report.add_argument("--out", type=Path, required=True)
    report.add_argument("--mode", choices=("paced", "unpaced"), default=None,
                        help="build curves only from runs of this mode")
    report.set_defaults(func=cmd_report)
    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    _configure_logging(args.verbose)
    opts = GlobalOptions(
        verbosity=args.verbose,
        manifest_path=getattr(args, "manifest", None),
        color=args.color,
    )
    try:
        return args.func(args, opts)
    except ConfigError as exc:
        _print_error(exc, opts)
        return EXIT_USAGE
    except EncoderRunError as exc:
        _print_error(exc, opts)
        return EXIT_CHILD
    except ComputationError as exc:
        _print_error(exc, opts)
        return EXIT_COMPUTATION
    except PacebenchError as exc:
        _print_error(exc, opts)
        return EXIT_COMPUTATION
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(dispatch())


def _print_error(exc: PacebenchError, opts: GlobalOptions) -> None:
    line = f"error: {exc.code}: {exc}"
    if opts.use_color():
        line = f"\x1b[31m{line}\x1b[0m"
    print(line, file=sys.stderr)


def _require_manifest(opts: GlobalOptions) -> list[dataset.VideoSequence]:
    if opts.manifest_path is None:
        raise ConfigError("a manifest is required (--manifest)")
    return dataset.load_manifest(opts.manifest_path)


def cmd_pace(args, opts: GlobalOptions) -> int:
    sequences = _require_manifest(opts)
    matches = [s for s in sequences if s.short_name == args.seq]
    if not matches:
        raise ConfigError(f"sequence '{args.seq}' is not in the manifest")
    seq = matches[0]
    fps_num, fps_den = (
        parse_fps(args.fps_override) if args.fps_override else (seq.fps_num, seq.fps_den)
    )

    to_stdout = args.out == "-"
    with dataset.open_frame_reader(args.input, seq) as reader:
        sink = sys.stdout.buffer if to_stdout else open(args.out, "wb")
        try:
            report = pacer.run_paced((frame.payload for frame in reader), sink, fps_num, fps_den)
        finally:
            if to_stdout:
                sink.flush()
            else:
                try:
                    sink.close()
                except OSError:
                    pass  # the reader already left; the run's own result or error stands

    lateness = report.lateness_per_frame
    summary = "\n".join([
        f"frames sent:      {report.frames_sent}",
        f"duration:         {report.total_duration_s:.6f} s",
        f"delivery rate:    {report.delivery_fps:.3f} fps (target {fps_num / fps_den:.3f})",
        f"lateness mean:    {statistics.fmean(lateness) * 1e3:.3f} ms",
        f"lateness p99:     {_percentile(lateness, 99) * 1e3:.3f} ms",
        f"lateness max:     {report.max_lateness_s * 1e3:.3f} ms",
        f"blocked in write: {report.blocked_time_s:.6f} s",
    ])
    print(summary, file=sys.stderr if to_stdout else sys.stdout)
    return EXIT_OK


def _percentile(values, q: float) -> float:
    """numpy.percentile's default (linear) estimate, rounded the same way."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * (q / 100)
    below = int(position)
    a, b = ordered[below], ordered[min(below + 1, len(ordered) - 1)]
    t = position - below
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def cmd_bench(args, opts: GlobalOptions) -> int:
    config = harness.load_benchmark_config(args.config)
    manifest_path = opts.manifest_path or config.manifest
    if manifest_path is None:
        raise ConfigError("a manifest is required (--manifest or the config's manifest key)")
    sequences = {s.short_name: s for s in dataset.load_manifest(manifest_path)}

    modes = None
    if args.mode == "both":
        modes = (RunMode.PACED, RunMode.UNPACED)
    elif args.mode:
        modes = (RunMode(args.mode),)

    records = harness.run_benchmark(
        config, sequences, modes=modes, only=_parse_only(args.only)
    )
    for r in records:
        print(
            f"{r.profile_name} {r.sequence_short_name} {r.target_bitrate_kbps:g} kbps "
            f"{r.mode.value}: {r.throughput_fps:.2f} fps, {r.output_size_bytes} B, "
            f"{r.achieved_bitrate_kbps:.1f} kbps achieved"
        )
    print(f"{len(records)} run record(s) in {config.output_dir}")
    return EXIT_OK


def cmd_bd(args, opts: GlobalOptions) -> int:
    from . import bd as bd_metrics  # numpy loads only for bd and report
    ref = load_curve_csv(args.ref)
    test = load_curve_csv(args.test)
    if args.kind == "rate":
        result = bd_metrics.bd_rate(test, ref, method=args.method.replace("-", "_"))
        unit = "%"
    else:
        result = bd_metrics.bd_quality(test, ref, rate_domain=args.rate_domain)
        unit = "points"
    span = result.common_range
    print(f"{result.value:.2f}")
    print(f"kind: {result.kind} ({unit}), method: {result.method}")
    print(f"common {span.axis} range: [{span.lo:g}, {span.hi:g}]")
    print(f"points used: test={result.points_used[0]} ref={result.points_used[1]}")
    return EXIT_OK


def _select_runs(
    records: list[tuple[Path, RunRecord]],
    mode: RunMode | None,
) -> list[tuple[Path, RunRecord]]:
    """One record per (profile, seq, target bitrate): requested mode, else
    unpaced before paced, first repetition first."""
    chosen: dict[tuple[str, str, float], tuple[Path, RunRecord]] = {}

    def priority(record: RunRecord) -> int:
        return 0 if record.mode is RunMode.UNPACED else 1

    for path, record in sorted(records, key=lambda item: item[0].name):
        if mode is not None and record.mode is not mode:
            continue
        key = (record.profile_name, record.sequence_short_name, record.target_bitrate_kbps)
        if key not in chosen or priority(record) < priority(chosen[key][1]):
            chosen[key] = (path, record)
    return list(chosen.values())


def cmd_report(args, opts: GlobalOptions) -> int:
    from . import report as report_mod
    sequences = _require_manifest(opts)
    runs_dir: Path = args.runs
    record_paths, quality_names = [], set()
    for p in runs_dir.glob(f"*{RECORD_SUFFIX}"):
        if p.name.endswith(QUALITY_SUFFIX):
            quality_names.add(p.name)
        else:
            record_paths.append(p)
    record_paths.sort()
    if not record_paths:
        raise ConfigError(f"no run records found under {runs_dir}")
    all_records = [(p, harness.load_run_record(p)) for p in record_paths]

    mode = RunMode(args.mode) if args.mode else None
    selected = _select_runs(all_records, mode)

    curves: dict[str, dict[str, object]] = {}
    pairs_by_profile_seq: dict[tuple[str, str], list] = {}
    for path, record in selected:
        quality_name = path.name[: -len(RECORD_SUFFIX)] + QUALITY_SUFFIX
        if quality_name not in quality_names:
            log.warning("no quality report for %s; skipping", path.name)
            continue
        report = quality.parse_metric_report(runs_dir / quality_name)
        key = (record.profile_name, record.sequence_short_name)
        pairs_by_profile_seq.setdefault(key, []).append((record, report))

    curves_dir = runs_dir / "curves"
    for (profile_name, seq_name), pairs in sorted(pairs_by_profile_seq.items()):
        label = f"{profile_name}/{seq_name}"
        try:
            curve = quality.collect_curve(pairs, label=label)
        except ComputationError as exc:
            log.warning("cannot build curve %s: %s", label, exc)
            continue
        curves.setdefault(profile_name, {})[seq_name] = curve
        save_curve_csv(curve, curves_dir / f"{profile_name}__{seq_name}.csv")

    benchmarked = {record.sequence_short_name for _, record in selected}
    row_sequences = [s for s in sequences if s.short_name in benchmarked]
    matrix = report_mod.build_matrix(curves, row_sequences, args.anchor, args.kind)
    document = report_mod.render(matrix, args.format)
    atomic_write_text(args.out, document)

    throughput_csv = report_mod.throughput_summary_csv(
        [record for _, record in all_records], row_sequences
    )
    atomic_write_text(runs_dir / "throughput.csv", throughput_csv)

    print(f"wrote {args.out}")
    print(f"wrote {runs_dir / 'throughput.csv'} and {len(curves)} profile curve set(s) "
          f"under {curves_dir}")
    return EXIT_OK


if __name__ == "__main__":
    main()
