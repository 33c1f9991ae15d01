"""Sink encoder owned by the benchmark: consumes frames and verifies every one.

With ``--cost-ms 0`` it drains frames as fast as the pipe delivers them.
With a positive cost it holds each frame for ``--cost-ms`` counted from when
it starts reading it, so its capacity is exactly ``1000 / cost_ms`` frames/s
as long as a read takes less than the cost.

Byte 0 of frame k must be ``k % 251`` (the generator's tag), which proves
order and count; ``--expect-frames`` must match the frames received. On any
mismatch the sink exits with status 3. On success it writes
``frames * round(kbps * 1000 / 8 / fps)`` zero bytes to ``--output``, so the
output size is known in advance.

Run as ``python3 -I -S perfbench/sink.py ...``: it imports nothing beyond the
interpreter's built-ins, so start-up stays short.
"""

import sys
import time

TAG_MODULUS = 251
EXIT_MISMATCH = 3


def _fail(message):
    sys.stderr.write("sink: " + message + "\n")
    return EXIT_MISMATCH


def _fill(stream, view):
    """Read exactly len(view) bytes; returns the count actually read."""
    got = 0
    size = len(view)
    while got < size:
        n = stream.readinto(view[got:])
        if not n:
            break
        got += n
    return got


def _parse_args(argv):
    args = {"cost-ms": "0", "format": "raw", "kbps": "0", "fps": "25"}
    it = iter(argv)
    for token in it:
        if not token.startswith("--"):
            raise SystemExit(_fail("unexpected argument " + token))
        args[token[2:]] = next(it)
    return args


def main(argv):
    args = _parse_args(argv)
    width, height = int(args["width"]), int(args["height"])
    expect = int(args["expect-frames"])
    cost_s = float(args["cost-ms"]) / 1000.0
    num, _, den = args["fps"].partition("/")
    per_frame_out = round(float(args["kbps"]) * 1000.0 / 8.0 * int(den or 1) / int(num))

    stdin = sys.stdin.buffer
    if args["format"] == "y4m":
        header = stdin.readline(4096)
        if not header.startswith(b"YUV4MPEG2 "):
            return _fail("missing Y4M stream header")
        expected_geometry = b" W%d H%d " % (width, height)
        if expected_geometry not in header:
            return _fail("Y4M header %r does not match %dx%d" % (header, width, height))

    frame = bytearray(width * height * 3 // 2)
    view = memoryview(frame)
    frames = 0
    while True:
        start = time.monotonic()
        if args["format"] == "y4m":
            marker = stdin.readline(1024)
            if not marker:
                break
            if marker != b"FRAME\n":
                return _fail("bad FRAME marker %r at frame %d" % (marker[:16], frames))
            got = _fill(stdin, view)
        else:
            got = _fill(stdin, view)
            if got == 0:
                break
        if got != len(frame):
            return _fail("truncated frame %d (%d of %d bytes)" % (frames, got, len(frame)))
        if frame[0] != frames % TAG_MODULUS:
            return _fail("frame %d carries tag %d, expected %d"
                         % (frames, frame[0], frames % TAG_MODULUS))
        frames += 1
        if cost_s:
            remaining = start + cost_s - time.monotonic()
            if remaining > 0:
                time.sleep(remaining)

    if frames != expect:
        return _fail("received %d frames, expected %d" % (frames, expect))
    with open(args["output"], "wb") as out:
        out.write(bytes(frames * per_frame_out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
