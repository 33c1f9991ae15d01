"""Raw video sources: geometry arithmetic, Y4M headers, frame layout, readers, manifest.

Supports exactly one sample layout, 8-bit planar I420, which is what the
uncompressed 1080p test clips use. Headerless ``.yuv`` files take their
geometry from the manifest; ``.y4m`` files carry their own header, which
must agree with the manifest entry or loading fails.
"""

from __future__ import annotations

import os
import stat
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator

from .errors import (
    ConfigError,
    InvalidGeometryError,
    ManifestError,
    TruncationError,
    Y4mParseError,
)
from .ioutil import load_json


class PixelFormat(str, Enum):
    I420_8BIT = "I420_8bit"


Y4M_MAGIC = b"YUV4MPEG2"
Y4M_FRAME_MARKER = b"FRAME"

# 8-bit 4:2:0 colorspace tags (they differ only in chroma siting, not layout)
_I420_COLORSPACES = {"420", "420jpeg", "420mpeg2", "420paldv"}

_MAX_HEADER_LINE = 4096
_MAX_FRAME_LINE = 1024

MANIFEST_REQUIRED_KEYS = (
    "name",
    "short_name",
    "path",
    "fps_num",
    "fps_den",
    "width",
    "height",
    "pixel_format",
    "frame_count",
)
_MANIFEST_INT_KEYS = ("fps_num", "fps_den", "width", "height", "frame_count")
_MANIFEST_STR_KEYS = ("name", "short_name", "path", "pixel_format")


def frame_byte_size(width: int, height: int, fmt: PixelFormat = PixelFormat.I420_8BIT) -> int:
    """Byte size of one planar frame. 4:2:0 subsampling requires even dimensions."""
    if PixelFormat(fmt) is not PixelFormat.I420_8BIT:
        raise InvalidGeometryError(f"unsupported pixel format: {fmt!r}")
    if width <= 0 or height <= 0:
        raise InvalidGeometryError(f"dimensions must be positive, got {width}x{height}")
    if width % 2 or height % 2:
        raise InvalidGeometryError(
            f"4:2:0 subsampling requires even dimensions, got {width}x{height}"
        )
    return width * height * 3 // 2


@dataclass(frozen=True)
class VideoSequence:
    """Identity, geometry, and timing of one raw source clip.

    ``duration_s`` is derived from the frame count when omitted; when given,
    it must agree with the frame count to within half a frame.
    """

    name: str
    short_name: str
    fps_num: int
    fps_den: int
    width: int
    height: int
    frame_count: int
    pixel_format: PixelFormat = PixelFormat.I420_8BIT
    duration_s: float | None = None
    path: Path | None = None

    def __post_init__(self):
        object.__setattr__(self, "pixel_format", PixelFormat(self.pixel_format))
        if self.path is not None:
            object.__setattr__(self, "path", Path(self.path))
        if self.fps_num <= 0 or self.fps_den <= 0:
            raise ValueError(f"fps must be positive, got {self.fps_num}/{self.fps_den}")
        if self.frame_count < 1:
            raise ValueError(f"frame_count must be >= 1, got {self.frame_count}")
        frame_byte_size(self.width, self.height, self.pixel_format)
        if self.duration_s is None:
            object.__setattr__(
                self, "duration_s", self.frame_count * self.fps_den / self.fps_num
            )
        else:
            expected = self.duration_s * self.fps_num / self.fps_den
            if not abs(self.frame_count - expected) <= 0.5 + 1e-9:  # NaN fails too
                raise ValueError(
                    f"frame_count {self.frame_count} inconsistent with duration "
                    f"{self.duration_s} s at {self.fps_num}/{self.fps_den} fps "
                    f"(expected about {expected:.2f} frames)"
                )

    @property
    def fps(self) -> float:
        return self.fps_num / self.fps_den

    @property
    def frame_bytes(self) -> int:
        return frame_byte_size(self.width, self.height, self.pixel_format)


@dataclass(frozen=True)
class FrameBuffer:
    """One frame's planar payload (Y then U then V)."""

    payload: bytes
    width: int
    height: int
    pixel_format: PixelFormat = PixelFormat.I420_8BIT

    def __post_init__(self):
        expected = frame_byte_size(self.width, self.height, self.pixel_format)
        if len(self.payload) != expected:
            raise ValueError(
                f"payload is {len(self.payload)} bytes, expected {expected} "
                f"for {self.width}x{self.height} {self.pixel_format.value}"
            )


@dataclass(frozen=True)
class Y4mHeader:
    width: int
    height: int
    fps_num: int
    fps_den: int
    colorspace: str = "420"


def _parse_header_fields(line: bytes) -> Y4mHeader:
    fields = line.rstrip(b"\r\n").split(b" ")
    if not fields or fields[0] != Y4M_MAGIC:
        raise Y4mParseError("missing YUV4MPEG2 magic")
    width = height = None
    fps = None
    colorspace = "420"
    for token in fields[1:]:
        if not token:
            continue
        tag, value = token[:1], token[1:]
        if tag == b"W":
            width = _positive_int(value, "W")
        elif tag == b"H":
            height = _positive_int(value, "H")
        elif tag == b"F":
            num, _, den = value.partition(b":")
            fps = (_positive_int(num, "F"), _positive_int(den or b"", "F"))
        elif tag == b"C":
            cs = value.decode("ascii", "replace")
            if cs not in _I420_COLORSPACES:
                raise Y4mParseError(f"unsupported colorspace parameter C{cs}")
            colorspace = cs
        elif tag in (b"I", b"A", b"X"):
            pass  # interlacing, aspect ratio, extensions: accepted and ignored
        else:
            raise Y4mParseError(f"unknown header parameter {token.decode('ascii', 'replace')!r}")
    if width is None:
        raise Y4mParseError("missing W parameter")
    if height is None:
        raise Y4mParseError("missing H parameter")
    if fps is None:
        raise Y4mParseError("missing F parameter")
    return Y4mHeader(width, height, fps[0], fps[1], colorspace)


def _positive_int(raw: bytes, field: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise Y4mParseError(f"malformed {field} parameter: {raw!r}") from None
    if value <= 0:
        raise Y4mParseError(f"{field} parameter must be positive, got {value}")
    return value


def parse_y4m_header(data: bytes) -> tuple[Y4mHeader, int]:
    """Parse the stream header; returns the header and the payload offset."""
    if data[: len(Y4M_MAGIC)] != Y4M_MAGIC:
        raise Y4mParseError("missing YUV4MPEG2 magic")
    end = data.find(b"\n", 0, _MAX_HEADER_LINE)
    if end < 0:
        raise Y4mParseError("missing end-of-header newline")
    return _parse_header_fields(data[:end]), end + 1


def build_y4m_header(width: int, height: int, fps_num: int, fps_den: int,
                     colorspace: str = "420") -> bytes:
    frame_byte_size(width, height)
    if fps_num <= 0 or fps_den <= 0:
        raise ValueError(f"fps must be positive, got {fps_num}/{fps_den}")
    if colorspace not in _I420_COLORSPACES:
        raise Y4mParseError(f"unsupported colorspace parameter C{colorspace}")
    return b"YUV4MPEG2 W%d H%d F%d:%d Ip A1:1 C%s\n" % (
        width, height, fps_num, fps_den, colorspace.encode("ascii"),
    )


class SourceFile:
    """A regular source file opened for positional reads.

    ``frame_ranges()`` is the one validator of a source's layout: it yields
    the (offset, length) of each frame's payload and raises TruncationError
    or Y4mParseError at the first frame the file cannot supply. Y4M header
    errors and manifest disagreements are raised on opening. A non-regular
    file (a FIFO, a terminal) is refused, since frames are read by offset.
    """

    def __init__(self, path: str | Path, sequence: VideoSequence):
        path = Path(path)
        self.sequence = sequence
        # O_NONBLOCK: opening a FIFO that has no writer must not hang
        self.fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        try:
            st = os.fstat(self.fd)
            if not stat.S_ISREG(st.st_mode):
                raise ConfigError(f"{path}: frame source must be a regular file")
            os.set_blocking(self.fd, True)
            self.size = st.st_size
            self.header = None
            self.payload_start = 0
            if path.suffix.lower() == ".y4m":
                self._read_header()
        except BaseException:
            os.close(self.fd)
            raise

    def _read_header(self) -> None:
        hdr, self.payload_start = parse_y4m_header(os.pread(self.fd, _MAX_HEADER_LINE, 0))
        seq = self.sequence
        if (hdr.width, hdr.height) != (seq.width, seq.height):
            raise ManifestError(
                f"{seq.short_name}: Y4M geometry {hdr.width}x{hdr.height} disagrees "
                f"with manifest {seq.width}x{seq.height}"
            )
        if hdr.fps_num * seq.fps_den != seq.fps_num * hdr.fps_den:
            raise ManifestError(
                f"{seq.short_name}: Y4M rate {hdr.fps_num}/{hdr.fps_den} disagrees "
                f"with manifest {seq.fps_num}/{seq.fps_den}"
            )
        self.header = hdr

    def frame_ranges(self) -> Iterator[tuple[int, int]]:
        """(offset, length) of each of ``sequence.frame_count`` payloads, checked lazily."""
        seq = self.sequence
        length = seq.frame_bytes
        offset = self.payload_start
        for k in range(seq.frame_count):
            if self.header is not None and offset < self.size:
                offset = self._skip_marker(offset, k)
            available = self.size - offset
            if available <= 0:
                raise TruncationError(
                    f"{seq.short_name}: source ended after {k} of "
                    f"{seq.frame_count} frames",
                    frames_read=k,
                )
            if available < length:
                raise TruncationError(
                    f"{seq.short_name}: truncated frame after {k} complete "
                    f"frames (got {available} of {length} bytes)",
                    frames_read=k,
                )
            yield offset, length
            offset += length

    def _skip_marker(self, offset: int, k: int) -> int:
        """Check frame k's FRAME line at ``offset``; returns its payload's offset."""
        line = os.pread(self.fd, _MAX_FRAME_LINE, offset)
        if not line.startswith(Y4M_FRAME_MARKER) or (
            line[len(Y4M_FRAME_MARKER):][:1] not in (b"\n", b" ", b"\r")
        ):
            raise Y4mParseError(f"expected FRAME marker at frame {k}, got {line[:16]!r}")
        end = line.find(b"\n")
        if end < 0:
            raise TruncationError(
                f"{self.sequence.short_name}: unterminated FRAME line after "
                f"{k} complete frames",
                frames_read=k,
            )
        return offset + end + 1

    def close(self) -> None:
        if self.fd >= 0:
            os.close(self.fd)
            self.fd = -1


class FrameReader:
    """Sequential single-consumer frame reader over a SourceFile.

    Yields exactly ``sequence.frame_count`` frames, then end-of-stream;
    a source that ends earlier raises TruncationError reporting how many
    complete frames were read.
    """

    def __init__(self, source: SourceFile):
        self._source = source
        self._ranges = source.frame_ranges()
        self.sequence = source.sequence
        self.frames_read = 0

    def read_frame(self) -> FrameBuffer | None:
        span = next(self._ranges, None)
        if span is None:
            return None
        offset, length = span
        payload = os.pread(self._source.fd, length, offset)
        seq = self.sequence
        if len(payload) != length:  # the file shrank after it was checked
            raise TruncationError(
                f"{seq.short_name}: truncated frame after {self.frames_read} complete "
                f"frames (got {len(payload)} of {length} bytes)",
                frames_read=self.frames_read,
            )
        self.frames_read += 1
        return FrameBuffer(payload, seq.width, seq.height, seq.pixel_format)

    def __iter__(self) -> Iterator[FrameBuffer]:
        while (frame := self.read_frame()) is not None:
            yield frame

    def close(self) -> None:
        self._source.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def open_frame_reader(path: str | Path, sequence: VideoSequence) -> FrameReader:
    """Open a regular source file with the reader matching its container."""
    return FrameReader(SourceFile(path, sequence))


def load_manifest(path: str | Path) -> list[VideoSequence]:
    """Load and validate the sequence manifest.

    Relative source paths are resolved against the manifest's directory.
    """
    path = Path(path)
    data = load_json(path, ManifestError, list)
    sequences: list[VideoSequence] = []
    seen: set[str] = set()
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise ManifestError(f"entry #{i}: manifest entries must be JSON objects")
        label = entry["short_name"] if isinstance(entry.get("short_name"), str) else f"entry #{i}"
        missing = [k for k in MANIFEST_REQUIRED_KEYS if k not in entry]
        if missing:
            raise ManifestError(f"{label}: missing key(s) {', '.join(missing)}")
        for key in _MANIFEST_INT_KEYS:
            if type(entry[key]) is not int:  # not bool, nor a float such as 4.0
                raise ManifestError(f"{label}: {key} must be an integer, got {entry[key]!r}")
        for key in _MANIFEST_STR_KEYS:
            if not isinstance(entry[key], str):
                raise ManifestError(f"{label}: {key} must be a string, got {entry[key]!r}")
        duration = entry.get("duration_s")
        if duration is not None and type(duration) not in (int, float):
            raise ManifestError(f"{label}: duration_s must be a number, got {duration!r}")
        source = Path(entry["path"])
        if not source.is_absolute():
            source = path.parent / source
        try:
            seq = VideoSequence(
                name=entry["name"],
                short_name=entry["short_name"],
                fps_num=entry["fps_num"],
                fps_den=entry["fps_den"],
                width=entry["width"],
                height=entry["height"],
                frame_count=entry["frame_count"],
                pixel_format=entry["pixel_format"],
                duration_s=duration,
                path=source,
            )
        except (ValueError, OverflowError, InvalidGeometryError) as exc:
            raise ManifestError(f"{label}: {exc}") from exc
        if seq.short_name in seen:
            raise ManifestError(f"duplicate short_name '{seq.short_name}'")
        seen.add(seq.short_name)
        sequences.append(seq)
    return sequences
