import io
import json
import os

import pytest
from hypothesis import given, strategies as st

from pacebench.dataset import (
    FrameBuffer,
    PixelFormat,
    SourceFile,
    VideoSequence,
    build_y4m_header,
    frame_byte_size,
    load_manifest,
    open_frame_reader,
    parse_y4m_header,
)
from pacebench.errors import (
    InvalidGeometryError,
    ManifestError,
    TruncationError,
    Y4mParseError,
)

from synthetic import frame_payload, make_sequence, write_raw_source, write_y4m_source


class TestFrameByteSize:
    def test_1080p(self):
        assert frame_byte_size(1920, 1080) == 3110400

    def test_smallest_legal_frame(self):
        assert frame_byte_size(2, 2) == 6

    def test_720p(self):
        assert frame_byte_size(1280, 720) == 1382400

    @pytest.mark.parametrize("w,h", [(3, 2), (2, 3), (1919, 1080), (0, 2), (-2, 2)])
    def test_bad_geometry(self, w, h):
        with pytest.raises(InvalidGeometryError):
            frame_byte_size(w, h)

    @given(
        w=st.integers(min_value=1, max_value=2048).map(lambda v: v * 2),
        h=st.integers(min_value=1, max_value=2048).map(lambda v: v * 2),
    )
    def test_even_dimensions_formula(self, w, h):
        assert frame_byte_size(w, h) == w * h * 3 // 2


class TestY4mHeader:
    def test_full_header(self):
        header, offset = parse_y4m_header(b"YUV4MPEG2 W1920 H1080 F25:1 Ip A1:1 C420\n")
        assert (header.width, header.height) == (1920, 1080)
        assert (header.fps_num, header.fps_den) == (25, 1)
        assert offset == 41

    def test_minimal_header(self):
        header, offset = parse_y4m_header(b"YUV4MPEG2 W1920 H1080 F50:1\n")
        assert (header.width, header.height) == (1920, 1080)
        assert (header.fps_num, header.fps_den) == (50, 1)
        assert header.colorspace == "420"

    def test_missing_magic(self):
        with pytest.raises(Y4mParseError, match="missing YUV4MPEG2 magic"):
            parse_y4m_header(b"RIFF....")

    @pytest.mark.parametrize(
        "line,field",
        [
            (b"YUV4MPEG2 H1080 F25:1\n", "W"),
            (b"YUV4MPEG2 W1920 F25:1\n", "H"),
            (b"YUV4MPEG2 W1920 H1080\n", "F"),
        ],
    )
    def test_missing_parameter(self, line, field):
        with pytest.raises(Y4mParseError, match=f"missing {field} parameter"):
            parse_y4m_header(line)

    @pytest.mark.parametrize("cs", ["C444", "C422", "C420p10", "Cmono"])
    def test_unsupported_colorspace(self, cs):
        with pytest.raises(Y4mParseError, match="colorspace"):
            parse_y4m_header(f"YUV4MPEG2 W2 H2 F25:1 {cs}\n".encode())

    def test_extension_params_ignored(self):
        header, _ = parse_y4m_header(b"YUV4MPEG2 W2 H2 F25:1 XFOO=bar It A0:0\n")
        assert header.width == 2

    def test_missing_newline(self):
        with pytest.raises(Y4mParseError, match="newline"):
            parse_y4m_header(b"YUV4MPEG2 W2 H2 F25:1")

    @given(
        w=st.integers(min_value=1, max_value=1024).map(lambda v: v * 2),
        h=st.integers(min_value=1, max_value=1024).map(lambda v: v * 2),
        num=st.integers(min_value=1, max_value=120000),
        den=st.integers(min_value=1, max_value=1001),
    )
    def test_build_parse_round_trip(self, w, h, num, den):
        header, offset = parse_y4m_header(build_y4m_header(w, h, num, den))
        assert (header.width, header.height) == (w, h)
        assert (header.fps_num, header.fps_den) == (num, den)


class TestVideoSequence:
    def test_duration_consistency(self):
        seq = make_sequence(fps_num=25, frame_count=217, duration_s=8.68)
        assert seq.frame_count == 217

    def test_duration_derived(self):
        seq = make_sequence(fps_num=50, frame_count=500)
        assert seq.duration_s == pytest.approx(10.0)

    def test_inconsistent_duration(self):
        with pytest.raises(ValueError, match="inconsistent"):
            make_sequence(fps_num=25, frame_count=999, duration_s=10.0)

    def test_odd_dimensions_rejected(self):
        with pytest.raises(InvalidGeometryError):
            make_sequence(width=3, height=2)

    def test_zero_frames_rejected(self):
        with pytest.raises(ValueError):
            make_sequence(frame_count=0)

    def test_frame_buffer_length_enforced(self):
        FrameBuffer(b"\0" * 6, 2, 2)
        with pytest.raises(ValueError, match="payload"):
            FrameBuffer(b"\0" * 5, 2, 2)


class TestRawReader:
    def test_exact_frames_then_eos(self, tmp_path):
        seq = make_sequence(frame_count=6, path=tmp_path / "a.yuv")
        write_raw_source(seq.path, seq)
        with SourceFile(seq.path, seq) as source:
            frames = iter(source)
            assert len(list(frames)) == 6
            assert next(frames, None) is None

    def test_truncated_file(self, tmp_path):
        seq = make_sequence(frame_count=7, path=tmp_path / "a.yuv")
        data = b"".join(frame_payload(seq, k) for k in range(6)) + b"\0\0\0"
        seq.path.write_bytes(data)
        with SourceFile(seq.path, seq) as source:
            with pytest.raises(TruncationError) as err:
                list(source)
            assert err.value.frames_read == 6

    def test_file_shrinks_after_opening(self, tmp_path):
        seq = make_sequence(frame_count=4, path=tmp_path / "a.yuv")
        write_raw_source(seq.path, seq)
        with SourceFile(seq.path, seq) as source:
            frames = iter(source)
            next(frames)
            os.truncate(seq.path, seq.frame_bytes + 2)
            with pytest.raises(TruncationError, match="got 2 of 6 bytes") as err:
                next(frames)
            assert err.value.frames_read == 1

    def test_stops_at_declared_count(self, tmp_path):
        seq = make_sequence(frame_count=3, path=tmp_path / "a.yuv")
        seq.path.write_bytes(b"\0" * (seq.frame_bytes * 10))
        with SourceFile(seq.path, seq) as source:
            assert len(list(source)) == 3
            assert len(list(source.spans())) == 3

    def test_raw_round_trip(self, tmp_path):
        seq = make_sequence(width=4, height=4, frame_count=5, path=tmp_path / "a.yuv")
        originals = [
            FrameBuffer(frame_payload(seq, k), seq.width, seq.height)
            for k in range(5)
        ]
        seq.path.write_bytes(b"".join(f.payload for f in originals))
        with open_frame_reader(seq.path, seq) as reader:
            assert isinstance(reader, SourceFile)
            reread = list(reader)
        assert [f.payload for f in reread] == [f.payload for f in originals]
        assert reader.fd == -1  # closed on leaving the block

    def test_spans_are_the_payloads(self, tmp_path):
        seq = make_sequence(frame_count=3, path=tmp_path / "a.yuv")
        write_raw_source(seq.path, seq)
        with SourceFile(seq.path, seq) as source:
            spans = list(source.spans())
            assert [os.pread(s.fd, s.length, s.offset) for s in spans] == [
                frame_payload(seq, k) for k in range(3)]
        assert [(s.prefix, s.index) for s in spans] == [(b"", 0), (b"", 1), (b"", 2)]


def _y4m_stream(source: SourceFile, y4m_framing: bool) -> bytes:
    return b"".join(s.prefix + os.pread(s.fd, s.length, s.offset)
                    for s in source.spans(y4m_framing))


class TestY4mReader:
    def test_reads_frames(self, tmp_path):
        seq = make_sequence(frame_count=4, path=tmp_path / "a.y4m")
        write_y4m_source(seq.path, seq)
        with open_frame_reader(seq.path, seq) as reader:
            assert isinstance(reader, SourceFile)
            frames = list(reader)
        assert [f.payload for f in frames] == [frame_payload(seq, k) for k in range(4)]

    def test_spans_reframe_or_strip_markers(self, tmp_path):
        seq = make_sequence(frame_count=3, path=tmp_path / "a.y4m")
        with open(seq.path, "wb") as fh:
            fh.write(build_y4m_header(seq.width, seq.height, seq.fps_num, seq.fps_den, "420jpeg"))
            for k in range(3):
                fh.write(b"FRAME Ip XFOO=bar\n" + frame_payload(seq, k))
        payloads = [frame_payload(seq, k) for k in range(3)]
        with SourceFile(seq.path, seq) as source:
            assert _y4m_stream(source, False) == b"".join(payloads)
            assert _y4m_stream(source, True) == (
                build_y4m_header(seq.width, seq.height, seq.fps_num, seq.fps_den)
                + b"".join(b"FRAME\n" + p for p in payloads))

    def test_geometry_mismatch_fails_fast(self, tmp_path):
        actual = make_sequence(width=4, height=4, frame_count=2, path=tmp_path / "a.y4m")
        write_y4m_source(actual.path, actual)
        claimed = make_sequence(width=2, height=2, frame_count=2, path=actual.path)
        with pytest.raises(ManifestError, match="geometry"):
            open_frame_reader(actual.path, claimed)

    def test_fps_mismatch_fails_fast(self, tmp_path):
        actual = make_sequence(fps_num=25, frame_count=2, path=tmp_path / "a.y4m")
        write_y4m_source(actual.path, actual)
        claimed = make_sequence(fps_num=50, frame_count=2, path=actual.path)
        with pytest.raises(ManifestError, match="rate"):
            open_frame_reader(actual.path, claimed)

    def test_equivalent_fps_ratio_accepted(self, tmp_path):
        seq = make_sequence(fps_num=25, fps_den=1, frame_count=2, path=tmp_path / "a.y4m")
        with open(seq.path, "wb") as fh:
            fh.write(build_y4m_header(seq.width, seq.height, 50, 2))
            for k in range(2):
                fh.write(b"FRAME\n" + frame_payload(seq, k))
        with SourceFile(seq.path, seq) as source:
            assert len(list(source)) == 2

    def test_bad_frame_marker(self, tmp_path):
        seq = make_sequence(frame_count=2, path=tmp_path / "a.y4m")
        with open(seq.path, "wb") as fh:
            fh.write(build_y4m_header(seq.width, seq.height, seq.fps_num, seq.fps_den))
            fh.write(b"JUNK!\n" + frame_payload(seq, 0))
        with SourceFile(seq.path, seq) as source:
            with pytest.raises(Y4mParseError, match="FRAME marker"):
                next(iter(source))
            with pytest.raises(Y4mParseError, match="FRAME marker"):
                next(source.spans())

    def test_truncated_payload(self, tmp_path):
        seq = make_sequence(frame_count=2, path=tmp_path / "a.y4m")
        with open(seq.path, "wb") as fh:
            fh.write(build_y4m_header(seq.width, seq.height, seq.fps_num, seq.fps_den))
            fh.write(b"FRAME\n" + frame_payload(seq, 0))
            fh.write(b"FRAME\n" + b"\0\0")
        with SourceFile(seq.path, seq) as source:
            with pytest.raises(TruncationError) as err:
                list(source)
        assert err.value.frames_read == 1

    def test_ends_early_truncation(self, tmp_path):
        seq = make_sequence(frame_count=5, path=tmp_path / "a.y4m")
        with open(seq.path, "wb") as fh:
            fh.write(build_y4m_header(seq.width, seq.height, seq.fps_num, seq.fps_den))
            for k in range(3):
                fh.write(b"FRAME\n" + frame_payload(seq, k))
        with SourceFile(seq.path, seq) as source:
            with pytest.raises(TruncationError) as err:
                list(source)
        assert err.value.frames_read == 3


def _manifest_entry(**overrides):
    entry = {
        "name": "Blue sky",
        "short_name": "BS25",
        "path": "blue_sky.yuv",
        "fps_num": 25,
        "fps_den": 1,
        "width": 1920,
        "height": 1080,
        "pixel_format": "I420_8bit",
        "frame_count": 217,
        "duration_s": 8.68,
    }
    entry.update(overrides)
    return entry


class TestManifest:
    def _write(self, tmp_path, entries):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(entries))
        return path

    def test_valid_entries(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                _manifest_entry(),
                _manifest_entry(
                    name="Crowd run", short_name="CR50", fps_num=50,
                    frame_count=500, duration_s=10.0, path="crowd_run.yuv",
                ),
            ],
        )
        sequences = load_manifest(path)
        assert [s.short_name for s in sequences] == ["BS25", "CR50"]
        assert sequences[0].frame_count == 217
        # relative paths resolve against the manifest directory
        assert sequences[0].path == tmp_path / "blue_sky.yuv"

    def test_consistency_tolerance(self, tmp_path):
        for seq in load_manifest(self._write(tmp_path, [_manifest_entry()])):
            assert abs(seq.frame_count - seq.duration_s * seq.fps) <= 0.5

    def test_inconsistent_entry_rejected(self, tmp_path):
        path = self._write(tmp_path, [_manifest_entry(frame_count=999, duration_s=10.0)])
        with pytest.raises(ManifestError, match="BS25"):
            load_manifest(path)

    def test_duplicate_short_name_rejected(self, tmp_path):
        path = self._write(tmp_path, [_manifest_entry(), _manifest_entry()])
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(path)

    def test_missing_key_rejected(self, tmp_path):
        entry = _manifest_entry()
        del entry["fps_num"]
        path = self._write(tmp_path, [entry])
        with pytest.raises(ManifestError, match="fps_num"):
            load_manifest(path)

    @pytest.mark.parametrize("key,value", [
        ("frame_count", "10"),
        ("fps_num", None),
        ("fps_den", 1.0),
        ("width", 4.0),
        ("height", True),
    ])
    def test_non_integer_field_rejected(self, tmp_path, key, value):
        path = self._write(tmp_path, [_manifest_entry(**{key: value})])
        with pytest.raises(ManifestError, match=f"BS25: {key} must be an integer"):
            load_manifest(path)

    def test_unknown_pixel_format_rejected(self, tmp_path):
        path = self._write(tmp_path, [_manifest_entry(pixel_format="I420_10bit")])
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_not_an_array(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{}")
        with pytest.raises(ManifestError, match="array"):
            load_manifest(path)
