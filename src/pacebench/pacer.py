"""Paced frame delivery: write each frame to a sink at exactly the capture rate.

Deadlines are absolute — ``start + k * interval`` on the monotonic clock —
so scheduling error never accumulates across frames. The pacer sleeps until
a fixed spin window before each deadline and busy-waits the rest, so no
frame is written early; a wake-up that overshoots the window makes that
frame late, and its lateness records it. For the length of a run the calling
thread's timer slack is 1 ns instead of the kernel's default 50 us, so the
sleeps wake close enough to their aim for a 0.1 ms window. The previous slack
is put back on every way out of ``run_paced``. A child inherits the slack of
the thread that starts it, so the harness starts each encoder before its
paced run and no encoder ever runs at 1 ns.

Writes are blocking: a consumer that cannot keep up delays the pacer, and
that delay is recorded as per-frame lateness and total blocked time, never
as dropped frames.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field
from typing import IO, Iterable, NamedTuple

from .errors import DeliveryAbortedError, InvalidInputError, InvalidRateError, TruncationError

# How long before each deadline the sleep ends and the busy-wait begins.
# Every frame spins for what is left of the window after it wakes, so a wider
# window costs CPU on every frame. On the benchmark host a 2 ms time.sleep
# overshoots by 15-31 us (p50) and 31-53 us (p90) at 1 ns timer slack, against
# 66-82 us and 96-104 us at the default 50 us slack.
_SPIN_S = 0.0001

# The paced loop's timer slack (prctl(2) PR_SET_TIMERSLACK; per thread).
_TIMER_SLACK_NS = 1
_PR_SET_TIMERSLACK = 29
_PR_GET_TIMERSLACK = 30


def frame_interval(fps_num: int, fps_den: int) -> float:
    """Seconds between successive frames at fps_num/fps_den."""
    if fps_num <= 0:
        raise InvalidRateError(f"fps numerator must be positive, got {fps_num}")
    if fps_den <= 0:
        raise InvalidRateError(f"fps denominator must be positive, got {fps_den}")
    return fps_den / fps_num


def buffer_latency(buffer_depth_frames: int, fps_num: int, fps_den: int = 1) -> float:
    """Time for live capture to fill a frame buffer of the given depth."""
    if buffer_depth_frames < 0:
        raise InvalidInputError(f"buffer depth cannot be negative, got {buffer_depth_frames}")
    return buffer_depth_frames * frame_interval(fps_num, fps_den)


@dataclass(frozen=True)
class PacingSchedule:
    """Absolute delivery deadlines anchored at a monotonic start epoch."""

    fps_num: int
    fps_den: int
    start_epoch: float
    frame_interval_s: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "frame_interval_s", frame_interval(self.fps_num, self.fps_den))

    def deadline(self, k: int) -> float:
        return self.start_epoch + k * self.frame_interval_s


@dataclass(frozen=True)
class PacingReport:
    """Delivery-timing record of one paced run; immutable once complete.

    ``lateness_per_frame[k]`` is the write-completion time of frame k minus
    its deadline, clamped below at zero. ``blocked_time_s`` is the total time
    spent inside blocking writes (backpressure from a slow consumer).
    """

    frames_sent: int
    total_duration_s: float
    lateness_per_frame: tuple[float, ...]
    blocked_time_s: float
    start_epoch: float

    def __post_init__(self):
        object.__setattr__(self, "lateness_per_frame", tuple(self.lateness_per_frame))

    @property
    def delivery_fps(self) -> float:
        if self.total_duration_s <= 0:
            return float("inf")
        return self.frames_sent / self.total_duration_s

    @property
    def max_lateness_s(self) -> float:
        return max(self.lateness_per_frame, default=0.0)

    def to_dict(self) -> dict:
        return {
            "frames_sent": self.frames_sent,
            "total_duration_s": self.total_duration_s,
            "lateness_per_frame": list(self.lateness_per_frame),
            "blocked_time_s": self.blocked_time_s,
            "start_epoch": self.start_epoch,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PacingReport":
        return cls(
            frames_sent=data["frames_sent"],
            total_duration_s=data["total_duration_s"],
            lateness_per_frame=tuple(data["lateness_per_frame"]),
            blocked_time_s=data["blocked_time_s"],
            start_epoch=data["start_epoch"],
        )


@functools.cache
def _libc_prctl():
    """libc's prctl(2), loaded by the first paced run: ``import ctypes`` costs
    about 2 ms, which every start-up would pay at module import."""
    import ctypes

    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = (ctypes.c_int,) + (ctypes.c_ulong,) * 4
    prctl.restype = ctypes.c_int
    return prctl


def _swap_timer_slack(ns: int) -> int | None:
    """Set the calling thread's timer slack to ``ns`` and return the previous
    value; where prctl cannot be reached (seccomp, no such libc symbol), change
    nothing and return None."""
    try:
        prctl = _libc_prctl()
    except (OSError, AttributeError):
        return None
    previous = prctl(_PR_GET_TIMERSLACK, 0, 0, 0, 0)
    if previous < 0 or prctl(_PR_SET_TIMERSLACK, ns, 0, 0, 0) != 0:
        return None
    return previous


def _wait_until(deadline: float) -> None:
    """Return at, never before, the absolute monotonic ``deadline``."""
    now = time.monotonic()
    if deadline - now > _SPIN_S:
        time.sleep(deadline - now - _SPIN_S)
    while now < deadline:
        now = time.monotonic()


class FileSpan(NamedTuple):
    """Frame ``index`` as a sink receives it: ``prefix``, then ``length``
    bytes at ``offset`` of the open regular file ``fd``."""

    fd: int
    offset: int
    length: int
    prefix: bytes
    index: int


def _write_bytes(sink: IO[bytes], data: bytes) -> None:
    # Raw (unbuffered) pipe writes may be short; loop until the chunk is out.
    view = memoryview(data)
    while view.nbytes:
        written = sink.write(view)
        if written is None:  # buffered sink took everything
            return
        view = view[written:]


def write_all(sink: IO[bytes], data: bytes | FileSpan) -> None:
    """Write one frame chunk, or send one FileSpan, to the sink.

    A span's payload moves from the file to the sink's descriptor inside the
    kernel (``os.sendfile``; Linux, when the sink is a pipe). A file that
    ends before the span does raises TruncationError instead of retrying.
    """
    if not isinstance(data, FileSpan):
        _write_bytes(sink, data)
        return
    if data.prefix:
        _write_bytes(sink, data.prefix)
        sink.flush()
    out = sink.fileno()
    offset, end = data.offset, data.offset + data.length
    while offset < end:
        sent = os.sendfile(out, data.fd, offset, end - offset)
        if not sent:
            raise TruncationError(
                f"source ended inside frame {data.index} "
                f"({offset - data.offset} of {data.length} bytes sent)",
                frames_read=data.index,
            )
        offset += sent


def run_paced(
    frames: Iterable[bytes | FileSpan],
    sink: IO[bytes],
    fps_num: int,
    fps_den: int,
) -> PacingReport:
    """Deliver each frame chunk no earlier than its absolute deadline.

    The frame source yields one bytes chunk or FileSpan per frame (the
    pacer is container-agnostic; any per-frame framing is the caller's
    business). The sink stays open; closing it to signal end-of-stream is
    the caller's job. A consumer that disappears mid-stream raises
    DeliveryAbortedError carrying the partial report.

    The caller must guarantee something drains the sink concurrently; with
    nobody reading a pipe, blocking writes stall the pacer indefinitely.
    """
    frame_interval(fps_num, fps_den)  # validate before touching the source
    source = iter(frames)
    try:
        chunk = next(source)
    except StopIteration:
        raise InvalidInputError("frame source yielded no frames") from None

    previous_slack = _swap_timer_slack(_TIMER_SLACK_NS)
    try:
        return _deliver(chunk, source, sink, fps_num, fps_den)
    finally:
        if previous_slack is not None:
            _swap_timer_slack(previous_slack)


def _deliver(chunk, source, sink, fps_num: int, fps_den: int) -> PacingReport:
    schedule = PacingSchedule(fps_num, fps_den, start_epoch=time.monotonic())
    start = schedule.start_epoch
    lateness: list[float] = []
    blocked = 0.0
    sent = 0
    last_done = start
    while True:
        deadline = schedule.deadline(sent)
        _wait_until(deadline)
        write_begin = time.monotonic()
        try:
            write_all(sink, chunk)
        except (BrokenPipeError, OSError) as exc:
            now = time.monotonic()
            partial = PacingReport(
                frames_sent=sent,
                total_duration_s=now - start,
                lateness_per_frame=tuple(lateness),
                blocked_time_s=blocked,
                start_epoch=start,
            )
            raise DeliveryAbortedError(
                f"sink closed by consumer after {sent} frames: {exc}",
                pacing_report=partial,
            ) from exc
        write_end = time.monotonic()
        lateness.append(max(0.0, write_end - deadline))
        blocked += write_end - write_begin
        sent += 1
        last_done = write_end
        try:
            chunk = next(source)
        except StopIteration:
            break

    return PacingReport(
        frames_sent=sent,
        total_duration_s=last_done - start,
        lateness_per_frame=tuple(lateness),
        blocked_time_s=blocked,
        start_epoch=start,
    )
