"""What reaches a piped encoder's stdin: exact bytes, failure paths, pipe size."""

from __future__ import annotations

import fcntl
import os
import random
import signal
import subprocess
import sys

import pytest

from pacebench import harness
from pacebench.dataset import build_y4m_header
from pacebench.errors import ConfigError, TruncationError, Y4mParseError
from pacebench.harness import EncoderProfile, run_paced, run_unpaced

from synthetic import make_sequence

# 160x120 frames are 28 800 bytes: several frames share one default pipe.
# 320x240 frames (115 200 bytes) do not fit one, so writes to them block.
SMALL = dict(width=160, height=120)
LARGE = dict(width=320, height=240)
FPS = 200  # paced runs stay short

COPY_STDIN = (
    "import shutil, sys\n"
    "with open(sys.argv[1], 'wb') as out:\n"
    "    shutil.copyfileobj(sys.stdin.buffer, out)\n"
)
REPORT_PIPE_SIZE = (
    "import fcntl, sys\n"
    "sys.stdin.buffer.read()\n"
    "with open(sys.argv[1], 'w') as out:\n"
    "    out.write(str(fcntl.fcntl(0, fcntl.F_GETPIPE_SZ)))\n"
)
RUNS = {"unpaced": run_unpaced, "paced": run_paced}


def _child_profile(code: str, input_mode: str) -> EncoderProfile:
    return EncoderProfile(
        f"script-{input_mode}",
        (sys.executable, "-c", code, "{output}", "{bitrate_kbps}"),
        input_mode=input_mode,
    )


def _payload(seq, k: int) -> bytes:
    # byte 0 tags the frame; the rest differs between frames and offsets
    return bytes([k]) + random.Random(k).randbytes(seq.frame_bytes - 1)


def _write_source(path, seq, frames: int, *, markers=(b"FRAME\n",), tail: bytes = b""):
    """A .yuv or .y4m source of ``frames`` frames, cycling through ``markers``."""
    with open(path, "wb") as fh:
        y4m = path.suffix == ".y4m"
        if y4m:
            fh.write(build_y4m_header(seq.width, seq.height, seq.fps_num, seq.fps_den))
        for k in range(frames):
            if y4m:
                fh.write(markers[k % len(markers)])
            fh.write(_payload(seq, k))
        fh.write(tail)


def _expected_stream(seq, input_mode: str) -> bytes:
    parts = []
    if input_mode == "stdin_y4m":
        parts.append(build_y4m_header(seq.width, seq.height, seq.fps_num, seq.fps_den))
    for k in range(seq.frame_count):
        if input_mode == "stdin_y4m":
            parts.append(b"FRAME\n")
        parts.append(_payload(seq, k))
    return b"".join(parts)


@pytest.fixture
def spawned(monkeypatch):
    """Every child the harness starts in this test, in order."""
    children = []
    real_popen = subprocess.Popen

    def popen(*args, **kwargs):
        child = real_popen(*args, **kwargs)
        children.append(child)
        return child

    monkeypatch.setattr(harness.subprocess, "Popen", popen)
    return children


def _assert_killed_and_reaped(children) -> None:
    assert len(children) == 1
    child = children[0]
    assert child.returncode == -signal.SIGKILL
    with pytest.raises(ProcessLookupError):
        os.kill(child.pid, 0)


@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("input_mode", ["stdin_raw", "stdin_y4m"])
@pytest.mark.parametrize("suffix", [".yuv", ".y4m"])
@pytest.mark.parametrize("geometry", [SMALL, LARGE], ids=["small", "large"])
def test_child_receives_exact_stream(tmp_path, run, input_mode, suffix, geometry):
    seq = make_sequence(fps_num=FPS, frame_count=7, path=tmp_path / ("src" + suffix),
                        **geometry)
    # marker parameters are the source's own business: never forwarded
    _write_source(seq.path, seq, seq.frame_count,
                  markers=(b"FRAME\n", b"FRAME Ip\n", b"FRAME Ixx XFOO=bar\n"))
    out = tmp_path / "stdin.bin"
    record = RUNS[run](_child_profile(COPY_STDIN, input_mode), seq, 800, output_path=out)
    assert record.frames_in == seq.frame_count
    assert out.read_bytes() == _expected_stream(seq, input_mode)


def test_raw_source_stops_at_declared_count(tmp_path):
    seq = make_sequence(frame_count=3, path=tmp_path / "src.yuv", **SMALL)
    _write_source(seq.path, seq, 5)
    out = tmp_path / "stdin.bin"
    run_unpaced(_child_profile(COPY_STDIN, "stdin_raw"), seq, 800, output_path=out)
    assert out.read_bytes() == _expected_stream(seq, "stdin_raw")


class TestFailurePaths:
    @pytest.mark.parametrize("run", RUNS)
    def test_partial_last_yuv_frame(self, tmp_path, spawned, run):
        seq = make_sequence(fps_num=FPS, frame_count=5, path=tmp_path / "src.yuv", **SMALL)
        _write_source(seq.path, seq, 4, tail=b"\0" * (seq.frame_bytes // 2))
        with pytest.raises(TruncationError, match="truncated frame") as err:
            RUNS[run](_child_profile(COPY_STDIN, "stdin_raw"), seq, 800,
                      output_path=tmp_path / "o.bin")
        assert err.value.frames_read == 4
        _assert_killed_and_reaped(spawned)

    @pytest.mark.parametrize("run", RUNS)
    @pytest.mark.parametrize("input_mode", ["stdin_raw", "stdin_y4m"])
    def test_y4m_source_ends_early(self, tmp_path, spawned, run, input_mode):
        seq = make_sequence(fps_num=FPS, frame_count=5, path=tmp_path / "src.y4m", **SMALL)
        _write_source(seq.path, seq, 3)
        with pytest.raises(TruncationError, match="ended after 3 of 5") as err:
            RUNS[run](_child_profile(COPY_STDIN, input_mode), seq, 800,
                      output_path=tmp_path / "o.bin")
        assert err.value.frames_read == 3
        _assert_killed_and_reaped(spawned)

    @pytest.mark.parametrize("run", RUNS)
    def test_bad_marker_at_frame_k(self, tmp_path, spawned, run):
        seq = make_sequence(fps_num=FPS, frame_count=5, path=tmp_path / "src.y4m", **SMALL)
        _write_source(seq.path, seq, 5, markers=(b"FRAME\n",) * 2 + (b"FRAMES\n",))
        with pytest.raises(Y4mParseError, match="FRAME marker at frame 2"):
            RUNS[run](_child_profile(COPY_STDIN, "stdin_y4m"), seq, 800,
                      output_path=tmp_path / "o.bin")
        _assert_killed_and_reaped(spawned)

    @pytest.mark.parametrize("run", RUNS)
    def test_source_truncated_after_validation(self, tmp_path, spawned, monkeypatch, run):
        seq = make_sequence(fps_num=FPS, frame_count=5, path=tmp_path / "src.yuv", **LARGE)
        _write_source(seq.path, seq, 5)
        real_ranges = harness.SourceFile.frame_ranges

        def shrinking(source):
            for k, (offset, length) in enumerate(real_ranges(source)):
                if k == 2:  # validated against the old size, then cut mid-frame
                    os.truncate(seq.path, offset + length // 3)
                yield offset, length

        monkeypatch.setattr(harness.SourceFile, "frame_ranges", shrinking)
        with pytest.raises(TruncationError, match="frame 2") as err:
            RUNS[run](_child_profile(COPY_STDIN, "stdin_raw"), seq, 800,
                      output_path=tmp_path / "o.bin")
        assert err.value.frames_read == 2
        _assert_killed_and_reaped(spawned)

    @pytest.mark.parametrize("run", RUNS)
    def test_fifo_source_rejected_before_spawn(self, tmp_path, spawned, run):
        fifo = tmp_path / "src.yuv"
        os.mkfifo(fifo)  # no writer: opening it for a blocking read would hang
        seq = make_sequence(fps_num=FPS, frame_count=5, path=fifo, **SMALL)
        with pytest.raises(ConfigError, match="regular file") as err:
            RUNS[run](_child_profile(COPY_STDIN, "stdin_raw"), seq, 800,
                      output_path=tmp_path / "o.bin")
        assert str(fifo) in str(err.value)
        assert spawned == []


def _pipe_max_size() -> int:
    with open("/proc/sys/fs/pipe-max-size") as fh:
        return int(fh.read())


class TestPipeSize:
    @pytest.mark.parametrize("run", RUNS)
    def test_child_stdin_pipe_enlarged(self, tmp_path, run):
        seq = make_sequence(fps_num=FPS, frame_count=3, path=tmp_path / "src.yuv", **SMALL)
        _write_source(seq.path, seq, 3)
        out = tmp_path / "size.txt"
        RUNS[run](_child_profile(REPORT_PIPE_SIZE, "stdin_raw"), seq, 800, output_path=out)
        assert int(out.read_text()) == min(1 << 20, _pipe_max_size())

    def test_resize_failure_keeps_default(self, tmp_path, monkeypatch):
        def refuse(fd, cmd, *args):
            if cmd == fcntl.F_SETPIPE_SZ:
                raise PermissionError("pipe size refused")
            return real_fcntl(fd, cmd, *args)

        real_fcntl = fcntl.fcntl
        monkeypatch.setattr(harness.fcntl, "fcntl", refuse)
        seq = make_sequence(frame_count=4, path=tmp_path / "src.yuv", **LARGE)
        _write_source(seq.path, seq, 4)
        out = tmp_path / "stdin.bin"
        record = run_unpaced(_child_profile(COPY_STDIN, "stdin_raw"), seq, 800,
                             output_path=out)
        assert record.frames_in == 4
        assert out.read_bytes() == _expected_stream(seq, "stdin_raw")
