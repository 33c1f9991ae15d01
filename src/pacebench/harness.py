"""External-encoder execution: command templating, paced/unpaced runs, measurement.

Two measurement modes mirror the two throughput experiments: ``unpaced``
streams frames as fast as the encoder consumes them (its maximum speed),
``paced`` delivers them through the pacer at the capture rate (the
real-time condition).

Feeding: piped encoders read from a regular source file, opened and
validated (``dataset.SourceFile``) before the child starts. Each frame is
one ``pacer.write_all`` of a ``FileSpan``: any Y4M stream header and bare
``FRAME`` line are written from Python, and the payload moves from the page
cache into the child's stdin with ``os.sendfile``, so frame data never
enters Python. The stdin pipe is enlarged with ``F_SETPIPE_SZ`` to the
smaller of 1 MiB and ``/proc/sys/fs/pipe-max-size`` (the default stays if
that fails). sendfile into a pipe and ``F_SETPIPE_SZ`` are Linux-only.

Child output: stdin is the only pipe, so feeding never waits on anything
but the child reading its input. A child's stdout goes straight to the
output file for ``output_mode=stdout`` and to ``/dev/null`` otherwise; the
output size is always that file's size. Its stderr goes to an unlinked
temporary file, of which only a failing run reads the last 64 KiB. Encoders
and metric tools share this model.
"""

from __future__ import annotations

import csv
import fcntl
import io
import json
import logging
import math
import os
import re
import statistics
import subprocess
import tempfile
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from . import pacer
from .dataset import SourceFile, VideoSequence, Y4M_FRAME_MARKER, build_y4m_header
from .dataset import open_frame_reader  # noqa: F401  (perfbench's tracer patches this name)
from .errors import (
    ConfigError,
    DeliveryAbortedError,
    EmptyGroupError,
    EncoderRunError,
    InvalidInputError,
    TemplateError,
)
from .ioutil import atomic_write_text
from .pacer import FileSpan, PacingReport, write_all

log = logging.getLogger(__name__)


class InputMode(str, Enum):
    STDIN_RAW = "stdin_raw"
    STDIN_Y4M = "stdin_y4m"
    FILE = "file"


class OutputMode(str, Enum):
    FILE = "file"
    STDOUT = "stdout"


class RunMode(str, Enum):
    PACED = "paced"
    UNPACED = "unpaced"


_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")
_STDERR_TAIL_LIMIT = 65536
_STDIN_PIPE_BYTES = 1 << 20

RUNS_CSV_COLUMNS = (
    "profile",
    "seq",
    "bitrate_kbps",
    "mode",
    "wall_time_s",
    "frames",
    "throughput_fps",
    "output_bytes",
    "achieved_kbps",
)

RECORD_SUFFIX = ".json"
QUALITY_SUFFIX = ".quality.json"
OUTPUT_SUFFIX = ".bin"

METRIC_PLACEHOLDERS = ("reference", "distorted", "width", "height", "fps", "report_out")


def _format_number(x) -> str:
    value = float(x)
    return str(int(value)) if value.is_integer() else repr(value)


def _count_placeholders(tokens: Sequence[str]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for token in tokens:
        for match in _PLACEHOLDER_RE.finditer(token):
            counts[match.group(1)] = counts.get(match.group(1), 0) + 1
    return counts


def _sequence_values(seq: VideoSequence) -> dict[str, str]:
    """Placeholders shared by both templates; {fps} is "num" or "num/den"."""
    fps = str(seq.fps_num) if seq.fps_den == 1 else f"{seq.fps_num}/{seq.fps_den}"
    return {
        "width": str(seq.width),
        "height": str(seq.height),
        "fps_num": str(seq.fps_num),
        "fps_den": str(seq.fps_den),
        "fps": fps,
    }


def _substitute_tokens(tokens: Sequence[str], values: Mapping[str, str], context: str) -> list[str]:
    def replace(match: re.Match) -> str:
        name = match.group(1)
        if name not in values:
            raise TemplateError(f"{context}: unknown placeholder '{{{name}}}'")
        return values[name]

    return [_PLACEHOLDER_RE.sub(replace, token) for token in tokens]


@dataclass(frozen=True)
class EncoderProfile:
    """A templated external-encoder invocation.

    ``command_template`` is a token list, never a shell string; tokens may
    embed the placeholders {bitrate_kbps}, {fps_num}, {fps_den}, {fps},
    {width}, {height}, {input}, {output}.
    """

    name: str
    command_template: tuple[str, ...]
    input_mode: InputMode = InputMode.STDIN_RAW
    output_mode: OutputMode = OutputMode.FILE

    def __post_init__(self):
        object.__setattr__(self, "command_template", tuple(self.command_template))
        object.__setattr__(self, "input_mode", InputMode(self.input_mode))
        object.__setattr__(self, "output_mode", OutputMode(self.output_mode))
        if not self.name:
            raise ConfigError("profile name must be non-empty")
        if not self.command_template:
            raise ConfigError(f"profile '{self.name}': command template is empty")
        counts = _count_placeholders(self.command_template)
        if counts.get("bitrate_kbps", 0) != 1:
            raise ConfigError(
                f"profile '{self.name}': template must contain {{bitrate_kbps}} exactly once"
            )
        outputs = counts.get("output", 0)
        if self.output_mode is OutputMode.FILE and outputs != 1:
            raise ConfigError(
                f"profile '{self.name}': template must contain {{output}} exactly once "
                f"(found {outputs})"
            )
        if self.output_mode is OutputMode.STDOUT and outputs != 0:
            raise ConfigError(
                f"profile '{self.name}': {{output}} conflicts with output_mode=stdout"
            )

    @classmethod
    def from_dict(cls, data: Mapping) -> "EncoderProfile":
        try:
            return cls(
                name=data["name"],
                command_template=_string_array(f"profile '{data['name']}'", "command_template",
                                               data["command_template"]),
                input_mode=InputMode(data.get("input_mode", "stdin_raw")),
                output_mode=OutputMode(data.get("output_mode", "file")),
            )
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"invalid encoder profile: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "command_template": list(self.command_template),
            "input_mode": self.input_mode.value,
            "output_mode": self.output_mode.value,
        }


def render_command(
    profile: EncoderProfile,
    seq: VideoSequence,
    bitrate_kbps,
    *,
    input_path: str | Path | None = None,
    output_path: str | Path | None = None,
) -> list[str]:
    """Substitute every placeholder in the profile's template.

    For piped input modes {input} renders "-" unless a path is given.
    """
    values = {"bitrate_kbps": _format_number(bitrate_kbps), **_sequence_values(seq)}
    if input_path is not None:
        values["input"] = str(input_path)
    elif profile.input_mode is not InputMode.FILE:
        values["input"] = "-"
    if output_path is not None:
        values["output"] = str(output_path)
    return _substitute_tokens(profile.command_template, values, f"profile '{profile.name}'")


@dataclass(frozen=True)
class RunRecord:
    """Measurements of one (encoder, sequence, bitrate, mode) execution."""

    profile_name: str
    sequence_short_name: str
    target_bitrate_kbps: float
    mode: RunMode
    wall_time_s: float
    frames_in: int
    throughput_fps: float
    output_size_bytes: int
    achieved_bitrate_kbps: float
    exit_status: int
    pacing: PacingReport | None = None

    def to_dict(self) -> dict:
        return {
            "profile_name": self.profile_name,
            "sequence_short_name": self.sequence_short_name,
            "target_bitrate_kbps": self.target_bitrate_kbps,
            "mode": self.mode.value,
            "wall_time_s": self.wall_time_s,
            "frames_in": self.frames_in,
            "throughput_fps": self.throughput_fps,
            "output_size_bytes": self.output_size_bytes,
            "achieved_bitrate_kbps": self.achieved_bitrate_kbps,
            "exit_status": self.exit_status,
            "pacing": self.pacing.to_dict() if self.pacing else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunRecord":
        pacing = data.get("pacing")
        return cls(
            profile_name=data["profile_name"],
            sequence_short_name=data["sequence_short_name"],
            target_bitrate_kbps=data["target_bitrate_kbps"],
            mode=RunMode(data["mode"]),
            wall_time_s=data["wall_time_s"],
            frames_in=data["frames_in"],
            throughput_fps=data["throughput_fps"],
            output_size_bytes=data["output_size_bytes"],
            achieved_bitrate_kbps=data["achieved_bitrate_kbps"],
            exit_status=data["exit_status"],
            pacing=PacingReport.from_dict(pacing) if pacing else None,
        )


def achieved_bitrate(output_size_bytes: int, duration_s: float) -> float:
    """Kilobits per second implied by the encoded size (kilobit = 1000 bits)."""
    if duration_s <= 0:
        raise InvalidInputError(f"duration must be positive, got {duration_s}")
    if output_size_bytes < 0:
        raise InvalidInputError(f"output size cannot be negative, got {output_size_bytes}")
    return 8.0 * output_size_bytes / duration_s / 1000.0


def mean_sample_std(values: Sequence[float]) -> tuple[float, float]:
    """Arithmetic mean and sample standard deviation (n-1; 0 for a singleton).

    The std comes from the float sum of squared deviations from the mean,
    without ``statistics.stdev``'s exact fractions. It agrees with that to
    1e-12 relative wherever the values spread by more than a millionth of
    their size. A constant group gives its value and exactly 0.
    """
    if not values:
        raise EmptyGroupError("no values to aggregate")
    if min(values) == max(values):
        return float(values[0]), 0.0
    mean = statistics.fmean(values)
    return mean, math.sqrt(math.fsum((x - mean) ** 2 for x in values) / (len(values) - 1))


def throughput_stats(records: Iterable[RunRecord]) -> dict[float, tuple[float, float]]:
    """Per-bitrate (mean, sample std) of throughput across records."""
    groups: dict[float, list[float]] = {}
    for record in records:
        groups.setdefault(record.target_bitrate_kbps, []).append(record.throughput_fps)
    if not groups:
        raise EmptyGroupError("no run records to aggregate")
    return {bitrate: mean_sample_std(values) for bitrate, values in sorted(groups.items())}


def _frame_spans(source: SourceFile, input_mode: InputMode) -> Iterator[FileSpan]:
    """One span per frame, framed per the encoder's input mode.

    For stdin_y4m each payload follows a bare FRAME line (a source marker's
    parameters are not forwarded), and the first also the stream header.
    """
    marker = first = b""
    if input_mode is InputMode.STDIN_Y4M:
        seq = source.sequence
        marker = Y4M_FRAME_MARKER + b"\n"
        first = build_y4m_header(seq.width, seq.height, seq.fps_num, seq.fps_den) + marker
    for k, (offset, length) in enumerate(source.frame_ranges()):
        yield FileSpan(source.fd, offset, length, first if k == 0 else marker, k)


def _enlarge_pipe(fd: int) -> None:
    """Grow a pipe to 1 MiB, or to the system's pipe-max-size where that is lower."""
    try:
        with open("/proc/sys/fs/pipe-max-size", "rb") as fh:
            size = min(_STDIN_PIPE_BYTES, int(fh.read()))
        fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, size)
    except (OSError, ValueError):
        pass  # the default size still works, only with more round trips


def run_unpaced(
    profile: EncoderProfile,
    seq: VideoSequence,
    bitrate_kbps: float,
    *,
    source_path: str | Path | None = None,
    output_path: str | Path | None = None,
) -> RunRecord:
    """Measure the encoder's maximum speed: frames delivered as fast as consumed.

    Wall time runs from process spawn to exit.
    """
    return _run(profile, seq, bitrate_kbps, RunMode.UNPACED, source_path, output_path)


def run_paced(
    profile: EncoderProfile,
    seq: VideoSequence,
    bitrate_kbps: float,
    *,
    source_path: str | Path | None = None,
    output_path: str | Path | None = None,
) -> RunRecord:
    """Measure the real-time condition: frames delivered at the capture rate.

    Wall time runs from the first frame's deadline to encoder exit, so
    process startup is not charged to pacing. Requires piped input.
    """
    if profile.input_mode is InputMode.FILE:
        raise ConfigError(
            f"profile '{profile.name}': paced mode requires stdin_raw or stdin_y4m input"
        )
    return _run(profile, seq, bitrate_kbps, RunMode.PACED, source_path, output_path)


def _run(profile, seq, bitrate_kbps, mode, source_path, output_path) -> RunRecord:
    source = Path(source_path) if source_path else seq.path
    if source is None:
        raise ConfigError(f"{seq.short_name}: no source path given and none in the manifest")

    source_file = SourceFile(source, seq) if profile.input_mode is not InputMode.FILE else None
    temp_output = None
    try:
        if output_path is None:
            fd, temp_output = tempfile.mkstemp(suffix=OUTPUT_SUFFIX, prefix="pacebench-")
            os.close(fd)
            output_path = temp_output
        return _run_spawned(profile, seq, bitrate_kbps, mode, source, source_file,
                            Path(output_path))
    finally:
        if source_file is not None:
            source_file.close()
        if temp_output:
            _unlink_quietly(temp_output)


def _stderr_tail(stderr) -> str:
    """The last ``_STDERR_TAIL_LIMIT`` bytes a child wrote to its stderr file."""
    size = os.fstat(stderr.fileno()).st_size
    start = max(0, size - _STDERR_TAIL_LIMIT)
    return os.pread(stderr.fileno(), size - start, start).decode("utf-8", "replace")


def _run_spawned(profile, seq, bitrate_kbps, mode, source, source_file,
                 output_path) -> RunRecord:
    cmd = render_command(
        profile,
        seq,
        bitrate_kbps,
        input_path=source if profile.input_mode is InputMode.FILE else None,
        output_path=output_path if profile.output_mode is OutputMode.FILE else None,
    )
    log.info("run %s %s %skbps %s: %s", profile.name, seq.short_name,
             _format_number(bitrate_kbps), mode.value, " ".join(cmd))

    stdout_path = output_path if profile.output_mode is OutputMode.STDOUT else os.devnull
    with open(stdout_path, "wb") as stdout, tempfile.TemporaryFile() as stderr:
        spawn_time = time.monotonic()
        try:
            child = subprocess.Popen(
                cmd,
                stdin=subprocess.PIPE if source_file is not None else subprocess.DEVNULL,
                stdout=stdout,
                stderr=stderr,
                bufsize=0,
            )
        except OSError as exc:
            raise EncoderRunError(f"failed to spawn '{cmd[0]}': {exc}") from exc

        frames_in = 0
        pacing_report: PacingReport | None = None
        feed_error: BaseException | None = None
        try:
            if source_file is not None:
                _enlarge_pipe(child.stdin.fileno())
                spans = _frame_spans(source_file, profile.input_mode)
                try:
                    if mode is RunMode.PACED:
                        pacing_report = pacer.run_paced(spans, child.stdin,
                                                        seq.fps_num, seq.fps_den)
                    else:
                        for span in spans:
                            write_all(child.stdin, span)
                            frames_in += 1
                except (DeliveryAbortedError, OSError) as exc:
                    feed_error = exc
                    pacing_report = getattr(exc, "pacing_report", None)
                if pacing_report is not None:
                    frames_in = pacing_report.frames_sent
                try:
                    child.stdin.close()
                except OSError:
                    pass  # the child already went away; its exit status tells why
            else:
                frames_in = seq.frame_count
            child.wait()
            exit_time = time.monotonic()
        except BaseException:
            child.kill()
            child.wait()
            if child.stdin is not None:
                child.stdin.close()
            raise

        exit_status = child.returncode
        if exit_status != 0:
            raise EncoderRunError(
                f"encoder '{profile.name}' exited with status {exit_status}",
                stderr_tail=_stderr_tail(stderr),
                exit_status=exit_status,
            )
        if feed_error is not None and mode is RunMode.UNPACED:
            raise EncoderRunError(
                f"encoder '{profile.name}' closed its input pipe after {frames_in} frames",
                stderr_tail=_stderr_tail(stderr),
                exit_status=exit_status,
            )
        try:
            output_size = os.path.getsize(output_path)
        except OSError as exc:
            raise EncoderRunError(
                f"encoder '{profile.name}' produced no output file: {exc}",
                stderr_tail=_stderr_tail(stderr),
            ) from exc

    if mode is RunMode.PACED and pacing_report is not None:
        wall_time = exit_time - pacing_report.start_epoch
    else:
        wall_time = exit_time - spawn_time

    record = RunRecord(
        profile_name=profile.name,
        sequence_short_name=seq.short_name,
        target_bitrate_kbps=float(bitrate_kbps),
        mode=mode,
        wall_time_s=wall_time,
        frames_in=frames_in,
        throughput_fps=frames_in / wall_time if wall_time > 0 else 0.0,
        output_size_bytes=output_size,
        achieved_bitrate_kbps=achieved_bitrate(output_size, seq.duration_s),
        exit_status=exit_status,
        pacing=pacing_report,
    )

    if feed_error is not None:  # paced: encoder quit before consuming everything
        raise DeliveryAbortedError(
            f"encoder '{profile.name}' stopped reading after {frames_in} of "
            f"{seq.frame_count} frames",
            pacing_report=pacing_report,
            run_record=record,
        ) from feed_error
    return record


def _unlink_quietly(path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


@dataclass(frozen=True)
class BenchmarkConfig:
    """One benchmark campaign: profiles x sequences x bitrates x modes."""

    profiles: tuple[EncoderProfile, ...]
    sequences: tuple[str, ...]
    bitrates_kbps: tuple[float, ...]
    modes: tuple[RunMode, ...]
    output_dir: Path
    repetitions: int = 1
    manifest: Path | None = None
    metric_command: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "profiles", tuple(self.profiles))
        object.__setattr__(self, "sequences", tuple(self.sequences))
        object.__setattr__(self, "bitrates_kbps", tuple(float(b) for b in self.bitrates_kbps))
        object.__setattr__(self, "modes", tuple(RunMode(m) for m in self.modes))
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        if self.manifest is not None:
            object.__setattr__(self, "manifest", Path(self.manifest))
        if self.metric_command is not None:
            object.__setattr__(self, "metric_command", tuple(self.metric_command))
        if not self.profiles:
            raise ConfigError("config needs at least one encoder profile")
        names = [p.name for p in self.profiles]
        if len(set(names)) != len(names):
            raise ConfigError("profile names must be unique within a benchmark config")
        if not self.sequences:
            raise ConfigError("config needs at least one sequence")
        rates = self.bitrates_kbps
        if not rates:
            raise ConfigError("bitrates_kbps must be non-empty")
        if any(b <= 0 for b in rates):
            raise ConfigError("bitrates_kbps must be strictly positive")
        if any(b1 <= b0 for b0, b1 in zip(rates, rates[1:])):
            raise ConfigError("bitrates_kbps must be strictly increasing")
        if not self.modes or len(set(self.modes)) != len(self.modes):
            raise ConfigError("modes must be a non-empty set of paced/unpaced")
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {self.repetitions}")


def _string_array(where: str | Path, key: str, value) -> tuple[str, ...]:
    """A config value that must be a JSON array of strings, as a tuple."""
    if not isinstance(value, list) or any(not isinstance(v, str) for v in value):
        raise ConfigError(f"{where}: {key} must be an array of strings, got {value!r}")
    return tuple(value)


def load_benchmark_config(path: str | Path) -> BenchmarkConfig:
    """Load a benchmark config; relative paths resolve against the config file."""
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    try:
        profiles = tuple(EncoderProfile.from_dict(p) for p in data["profiles"])
        bitrates = data["bitrates_kbps"]
        if not isinstance(bitrates, list) or any(type(b) not in (int, float) for b in bitrates):
            raise ConfigError(f"{path}: bitrates_kbps must be an array of numbers, got {bitrates!r}")
        repetitions = data.get("repetitions", 1)
        if type(repetitions) is not int:  # not bool, nor a float such as 2.7
            raise ConfigError(f"{path}: repetitions must be an integer, got {repetitions!r}")
        metric_command = data.get("metric_command")
        if metric_command is not None:
            metric_command = _string_array(path, "metric_command", metric_command) or None
        config = BenchmarkConfig(
            profiles=profiles,
            sequences=_string_array(path, "sequences", data["sequences"]),
            bitrates_kbps=tuple(bitrates),
            modes=_string_array(path, "modes", data.get("modes", ["paced", "unpaced"])),
            output_dir=Path(data["output_dir"]),
            repetitions=repetitions,
            manifest=Path(data["manifest"]) if data.get("manifest") else None,
            metric_command=metric_command,
        )
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    def resolve(p: Path | None) -> Path | None:
        if p is None or p.is_absolute():
            return p
        return path.parent / p

    object.__setattr__(config, "output_dir", resolve(config.output_dir))
    object.__setattr__(config, "manifest", resolve(config.manifest))
    return config


def run_basename(profile_name: str, seq_name: str, bitrate_kbps, mode: RunMode, rep: int) -> str:
    return f"{profile_name}__{seq_name}__{_format_number(bitrate_kbps)}__{mode.value}__rep{rep}"


def save_run_record(record: RunRecord, path: str | Path) -> None:
    atomic_write_text(path, json.dumps(record.to_dict(), indent=2, sort_keys=True) + "\n")


def load_run_record(path: str | Path) -> RunRecord:
    with open(path, "r", encoding="utf-8") as fh:
        return RunRecord.from_dict(json.load(fh))


def runs_csv_text(records: Sequence[RunRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RUNS_CSV_COLUMNS)
    for r in records:
        writer.writerow([
            r.profile_name,
            r.sequence_short_name,
            repr(r.target_bitrate_kbps),
            r.mode.value,
            repr(r.wall_time_s),
            r.frames_in,
            repr(r.throughput_fps),
            r.output_size_bytes,
            repr(r.achieved_bitrate_kbps),
        ])
    return buf.getvalue()


def write_runs_csv(records: Sequence[RunRecord], path: str | Path) -> None:
    atomic_write_text(path, runs_csv_text(records))


def run_metric_tool(
    command_template: Sequence[str],
    *,
    reference: str | Path,
    distorted: str | Path,
    seq: VideoSequence,
    report_out: str | Path,
) -> None:
    """Invoke an external quality-metric tool via the shared templating."""
    values = {
        "reference": str(reference),
        "distorted": str(distorted),
        "report_out": str(report_out),
        **_sequence_values(seq),
    }
    cmd = _substitute_tokens(command_template, values, "metric command")
    with tempfile.TemporaryFile() as stderr:
        try:
            status = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=stderr).returncode
        except OSError as exc:
            raise EncoderRunError(f"failed to spawn metric tool '{cmd[0]}': {exc}") from exc
        if status != 0:
            raise EncoderRunError(
                f"metric tool exited with status {status}",
                stderr_tail=_stderr_tail(stderr),
                exit_status=status,
            )


def run_benchmark(
    config: BenchmarkConfig,
    sequences: Mapping[str, VideoSequence],
    *,
    modes: Sequence[RunMode] | None = None,
    only: Mapping[str, str] | None = None,
) -> list[RunRecord]:
    """Execute the campaign, persisting one JSON record per run plus runs.csv.

    ``only`` optionally restricts to one profile and/or sequence. Runs are
    strictly sequential; paced timing needs an otherwise idle machine.
    """
    selected_modes = tuple(modes) if modes else config.modes
    only = dict(only or {})
    unknown = set(only) - {"profile", "seq"}
    if unknown:
        raise ConfigError(f"unknown --only key(s): {', '.join(sorted(unknown))}")

    out_dir = config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    records: list[RunRecord] = []
    for profile in config.profiles:
        if only.get("profile") and profile.name != only["profile"]:
            continue
        for seq_name in config.sequences:
            if only.get("seq") and seq_name != only["seq"]:
                continue
            seq = sequences.get(seq_name)
            if seq is None:
                raise ConfigError(f"sequence '{seq_name}' is not in the manifest")
            for bitrate in config.bitrates_kbps:
                for mode in selected_modes:
                    for rep in range(config.repetitions):
                        base = run_basename(profile.name, seq_name, bitrate, mode, rep)
                        output_path = out_dir / (base + OUTPUT_SUFFIX)
                        if mode is RunMode.PACED:
                            record = run_paced(profile, seq, bitrate, output_path=output_path)
                        else:
                            record = run_unpaced(profile, seq, bitrate, output_path=output_path)
                        save_run_record(record, out_dir / (base + RECORD_SUFFIX))
                        if config.metric_command:
                            run_metric_tool(
                                config.metric_command,
                                reference=seq.path,
                                distorted=output_path,
                                seq=seq,
                                report_out=out_dir / (base + QUALITY_SUFFIX),
                            )
                        records.append(record)
    if not records:
        raise ConfigError("the --only filter matched no runs")
    write_runs_csv(records, out_dir / "runs.csv")
    return records
