import ctypes
import errno
import os
import threading
import time

import numpy as np
import pytest

from pacebench import pacer
from pacebench.errors import (
    DeliveryAbortedError,
    InvalidInputError,
    InvalidRateError,
    TruncationError,
)
from pacebench.pacer import (
    FileSpan,
    PacingSchedule,
    buffer_latency,
    frame_interval,
    run_paced,
    write_all,
)


class TestFrameInterval:
    def test_25fps_is_40ms(self):
        assert frame_interval(25, 1) == pytest.approx(0.040)

    def test_50fps_is_20ms(self):
        assert frame_interval(50, 1) == pytest.approx(0.020)

    def test_ntsc_ratio(self):
        assert frame_interval(30000, 1001) == pytest.approx(0.033366, abs=1e-6)

    @pytest.mark.parametrize("num,den", [(0, 1), (-25, 1), (25, 0), (25, -1)])
    def test_invalid_rate(self, num, den):
        with pytest.raises(InvalidRateError):
            frame_interval(num, den)


class TestBufferLatency:
    def test_sixty_frames_at_thirty_fps(self):
        assert buffer_latency(60, 30, 1) == 2.0

    def test_empty_buffer(self):
        assert buffer_latency(0, 25, 1) == 0.0

    def test_one_second_of_frames(self):
        assert buffer_latency(25, 25, 1) == 1.0

    def test_negative_depth(self):
        with pytest.raises(InvalidInputError):
            buffer_latency(-1, 25, 1)


class TestSchedule:
    def test_absolute_deadlines(self):
        schedule = PacingSchedule(50, 1, start_epoch=100.0)
        assert schedule.deadline(0) == 100.0
        assert schedule.deadline(10) == pytest.approx(100.2)
        assert schedule.frame_interval_s == pytest.approx(0.02)


@pytest.fixture
def null_sink():
    with open(os.devnull, "wb", buffering=0) as sink:
        yield sink


class TestRunPaced:
    def test_empty_source(self, null_sink):
        with pytest.raises(InvalidInputError):
            run_paced([], null_sink, 25, 1)

    @pytest.mark.realtime
    def test_single_frame_sends_immediately(self, null_sink):
        report = run_paced([b"x" * 6], null_sink, 25, 1)
        assert report.frames_sent == 1
        assert report.total_duration_s < 0.05

    @pytest.mark.realtime
    def test_hundred_frames_at_fifty_fps(self, null_sink):
        frames = [b"\0" * 6] * 100
        report = run_paced(frames, null_sink, 50, 1)
        assert 1.98 <= report.total_duration_s <= 2.08
        # throughput ceiling: never faster than 1.02x real time
        assert report.delivery_fps <= 50 * 1.02
        # sum property
        assert report.total_duration_s >= (report.frames_sent - 1) * 0.02
        # no drift on a fast sink
        lateness = np.asarray(report.lateness_per_frame)
        assert np.percentile(lateness, 99) < 0.005
        assert (lateness >= 0).all()

    @pytest.mark.realtime
    def test_slow_consumer_backpressure(self):
        # 20 fps pacing against a consumer draining at ~5 fps through a pipe
        # whose capacity is a few frames: writes block, lateness grows.
        frame_bytes = 16384
        total = 24
        read_fd, write_fd = os.pipe()
        consumed = threading.Event()

        def consume():
            with os.fdopen(read_fd, "rb", buffering=0) as src:
                while True:
                    data = src.read(frame_bytes)
                    if not data:
                        break
                    time.sleep(0.2)
            consumed.set()

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        sink = os.fdopen(write_fd, "wb", buffering=0)
        report = run_paced([b"\0" * frame_bytes] * total, sink, 20, 1)
        sink.close()  # end-of-stream, which the consumer waits for
        consumer.join(timeout=30)
        assert consumed.is_set()
        assert report.frames_sent == total
        assert report.blocked_time_s > 0.5
        lateness = report.lateness_per_frame
        assert lateness[-1] > lateness[2] + 0.3
        # tail grows monotonically (5 ms slack for scheduler jitter)
        tail = lateness[-8:]
        assert all(b >= a - 0.005 for a, b in zip(tail, tail[1:]))

    def test_consumer_disappears(self):
        frame_bytes = 4096
        read_fd, write_fd = os.pipe()

        def consume_three_then_close():
            with os.fdopen(read_fd, "rb", buffering=0) as src:
                for _ in range(3):
                    src.read(frame_bytes)

        consumer = threading.Thread(target=consume_three_then_close, daemon=True)
        consumer.start()
        sink = os.fdopen(write_fd, "wb", buffering=0)
        with pytest.raises(DeliveryAbortedError) as err:
            run_paced([b"\0" * frame_bytes] * 500, sink, 200, 1)
        sink.close()
        consumer.join(timeout=10)
        partial = err.value.pacing_report
        assert partial is not None
        assert 0 < partial.frames_sent < 500

    def test_report_round_trip(self, null_sink):
        report = run_paced([b"x" * 6] * 3, null_sink, 100, 1)
        from pacebench.pacer import PacingReport

        clone = PacingReport.from_dict(report.to_dict())
        assert clone == report

    @pytest.mark.realtime
    def test_no_write_starts_before_its_deadline(self):
        sink = RecordingSink(time.monotonic)
        report = run_paced([b"x" * 6] * 50, sink, 100, 1)
        interval = frame_interval(100, 1)
        assert len(sink.write_begins) == 50
        for k, begin in enumerate(sink.write_begins):
            assert begin >= report.start_epoch + k * interval, k

    def test_run_paced_leaves_the_sink_open(self, null_sink):
        run_paced([b"x" * 6] * 3, null_sink, 100, 1)
        assert not null_sink.closed
        null_sink.write(b"more")  # the caller may still write, then closes it


class RecordingSink:
    """Takes every write whole and records when each began, read off ``now``."""

    def __init__(self, now):
        self.now = now
        self.write_begins: list[float] = []

    def write(self, data):
        self.write_begins.append(self.now())
        return len(data)


class FakeClock:
    """Stands in for ``pacer.time``: every read advances the clock by 1 us,
    and ``sleep(s)`` advances it by ``s`` plus the next scripted overshoot."""

    TICK = 1e-6

    def __init__(self, overshoots):
        self.now = 100.0
        self.overshoots = iter(overshoots)
        self.sleep_aims: list[float] = []

    def monotonic(self):
        self.now += self.TICK
        return self.now

    def sleep(self, seconds):
        self.sleep_aims.append(self.now + seconds)
        self.now += seconds + next(self.overshoots)


class TestWaitPolicy:
    """The spin window, read off each sleep as deadline minus where it aimed to wake."""

    FPS = 50

    def _run(self, monkeypatch, overshoots):
        clock = FakeClock(overshoots)
        monkeypatch.setattr(pacer, "time", clock)
        sink = RecordingSink(lambda: clock.now)
        frames = len(overshoots) + 1
        report = run_paced([b"x"] * frames, sink, self.FPS, 1)
        schedule = PacingSchedule(self.FPS, 1, start_epoch=report.start_epoch)
        assert report.frames_sent == frames
        assert all(begin >= schedule.deadline(k) for k, begin in enumerate(sink.write_begins))
        # frame 0 is due at once; every later frame sleeps exactly once
        assert len(clock.sleep_aims) == frames - 1
        return [schedule.deadline(k + 1) - aim for k, aim in enumerate(clock.sleep_aims)]

    @pytest.mark.parametrize("overshoots", [
        pytest.param([0.005] * 10, id="all-late"),
        pytest.param([0.00002] * 100, id="all-punctual"),
        pytest.param([0.0, 0.005, 0.00002, 0.001, 0.0, 0.003, 0.0001], id="mixed"),
    ])
    def test_every_sleep_ends_one_fixed_window_before_its_deadline(self, monkeypatch,
                                                                   overshoots):
        windows = self._run(monkeypatch, overshoots)
        assert windows == pytest.approx([pacer._SPIN_S] * len(overshoots))

    def test_early_wake_still_waits_for_the_deadline(self, monkeypatch):
        # a sleep cut short (overshoot below zero) leaves the spin to cover the rest
        self._run(monkeypatch, [-0.005, 0.0, -0.0001])


_PR_GET_TIMERSLACK = 30
_prctl = ctypes.CDLL(None, use_errno=True).prctl
_prctl.argtypes = (ctypes.c_int,) + (ctypes.c_ulong,) * 4
_prctl.restype = ctypes.c_int


def thread_slack_ns() -> int:
    """The calling thread's timer slack, read with PR_GET_TIMERSLACK."""
    return _prctl(_PR_GET_TIMERSLACK, 0, 0, 0, 0)


# Read while pytest collects, before any test has run the pacer
START_SLACK_NS = thread_slack_ns()


class SlackSink:
    """Takes every write whole and records the writing thread's timer slack;
    raises BrokenPipeError, as a pipe whose reader left, after ``fail_after`` writes."""

    def __init__(self, fail_after=None):
        self.fail_after = fail_after
        self.slacks: list[int] = []

    def write(self, data):
        if len(self.slacks) == self.fail_after:
            raise BrokenPipeError("consumer gone")
        self.slacks.append(thread_slack_ns())
        return len(data)


class TestTimerSlack:
    """The paced loop runs at 1 ns timer slack, and the thread's own slack comes back after."""

    def test_every_write_runs_at_one_nanosecond(self):
        sink = SlackSink()
        run_paced([b"x" * 6] * 20, sink, 200, 1)
        assert sink.slacks == [1] * 20
        assert thread_slack_ns() == START_SLACK_NS

    def test_restored_after_the_consumer_goes(self):
        sink = SlackSink(fail_after=3)
        with pytest.raises(DeliveryAbortedError) as err:
            run_paced([b"x" * 6] * 20, sink, 200, 1)
        assert err.value.pacing_report.frames_sent == 3
        assert sink.slacks == [1] * 3
        assert thread_slack_ns() == START_SLACK_NS

    def test_restored_after_a_short_file_span(self, tmp_path, null_sink):
        source = tmp_path / "short.yuv"
        source.write_bytes(b"\0" * 10)
        with open(source, "rb") as fh, pytest.raises(TruncationError):
            run_paced([FileSpan(fh.fileno(), 0, 100, b"", 0)], null_sink, 200, 1)
        assert thread_slack_ns() == START_SLACK_NS

    @pytest.mark.parametrize("failure", ["load", "call"])
    def test_run_goes_on_where_prctl_fails(self, monkeypatch, failure):
        def no_libc():
            raise OSError("prctl is not reachable")

        monkeypatch.setattr(pacer, "_libc_prctl",
                            no_libc if failure == "load" else lambda: lambda *args: -1)
        sink = SlackSink()
        report = run_paced([b"x" * 6] * 10, sink, 200, 1)
        assert report.frames_sent == 10
        assert len(report.lateness_per_frame) == 10
        assert sink.slacks == [START_SLACK_NS] * 10
        assert thread_slack_ns() == START_SLACK_NS


class TestWriteAll:
    DATA = bytes(range(256)) * 64

    def _source(self, tmp_path):
        path = tmp_path / "src.bin"
        path.write_bytes(self.DATA)
        return open(path, "rb")

    def test_append_sink_gets_the_spans_in_order(self, tmp_path):
        # sendfile refuses an O_APPEND descriptor with EINVAL; the span is still sent
        out = tmp_path / "out.bin"
        out.write_bytes(b"head")
        with self._source(tmp_path) as src, open(out, "ab") as sink:
            write_all(sink, FileSpan(src.fileno(), 100, 9000, b"FRAME\n", 0))
            write_all(sink, b"raw")
            write_all(sink, FileSpan(src.fileno(), 0, 10, b"", 1))
            assert out.read_bytes() == (b"head" + b"FRAME\n" + self.DATA[100:9100] + b"raw"
                                        + self.DATA[:10])

    def test_append_sink_short_source_is_truncation(self, tmp_path):
        with self._source(tmp_path) as src, open(tmp_path / "out.bin", "ab") as sink:
            span = FileSpan(src.fileno(), len(self.DATA) - 5, 10, b"", 3)
            with pytest.raises(TruncationError, match="5 of 10 bytes") as err:
                write_all(sink, span)
        assert err.value.frames_read == 3
        assert (tmp_path / "out.bin").read_bytes() == self.DATA[-5:]

    def test_other_sendfile_errors_propagate(self, tmp_path):
        (tmp_path / "out.bin").write_bytes(b"")
        with self._source(tmp_path) as src, open(tmp_path / "out.bin", "rb") as sink:
            with pytest.raises(OSError) as err:
                write_all(sink, FileSpan(src.fileno(), 0, 10, b"", 0))
        assert err.value.errno == errno.EBADF
