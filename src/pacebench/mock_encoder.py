"""Mock encoder child processes for exercising the harness without real codecs.

Two behaviors:

* ``--mode fast``  reads raw frames from stdin and discards them as fast as
  the pipe delivers them (a no-op encoder).
* ``--mode sleep`` reads one frame, sleeps ``--sleep-ms``, repeats (an
  encoder with a fixed per-frame cost).

Output is synthetic: ``--kbps`` emits round(kbps * 1000 / 8 / fps) bytes per
frame consumed, so the apparent bitrate tracks the requested target;
``--emit-total-bytes`` writes an exact total instead. ``--fail-after`` and
``--stop-after`` simulate a crashing or early-exiting encoder.

Run as ``python -m pacebench.mock_encoder ...``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import BinaryIO

from .framerate import parse_fps


def _read_exact(stream: BinaryIO, n: int) -> bytes | None:
    """Read exactly n bytes; None on clean EOF, a short result on truncation."""
    chunks = []
    got = 0
    while got < n:
        piece = stream.read(n - got)
        if not piece:
            break
        chunks.append(piece)
        got += len(piece)
    if not chunks:
        return None
    return b"".join(chunks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mock-encoder", description=__doc__)
    parser.add_argument("--mode", choices=("fast", "sleep"), default="fast")
    parser.add_argument("--width", type=int, required=True)
    parser.add_argument("--height", type=int, required=True)
    parser.add_argument("--sleep-ms", type=float, default=0.0, help="per-frame delay (sleep mode)")
    parser.add_argument("--kbps", type=float, default=0.0, help="synthesize output at this bitrate")
    parser.add_argument("--fps", default="25", help="frame rate as N or N/D (for --kbps sizing)")
    parser.add_argument("--output", default=None, help="output file, '-' for stdout, omit for none")
    parser.add_argument("--emit-total-bytes", type=int, default=None)
    parser.add_argument("--fail-after", type=int, default=None,
                        help="exit with status 1 after this many frames")
    parser.add_argument("--stop-after", type=int, default=None,
                        help="exit cleanly after this many frames, ignoring the rest")
    args = parser.parse_args(argv)

    frame_bytes = args.width * args.height * 3 // 2
    fps_num, fps_den = parse_fps(args.fps)
    per_frame_out = 0
    if args.kbps > 0 and args.emit_total_bytes is None:
        per_frame_out = round(args.kbps * 1000.0 / 8.0 * fps_den / fps_num)

    out = None
    if args.output == "-":
        out = sys.stdout.buffer
    elif args.output:
        out = open(args.output, "wb")

    stdin = sys.stdin.buffer
    frames = 0
    try:
        while True:
            payload = _read_exact(stdin, frame_bytes)
            if payload is None or len(payload) < frame_bytes:
                break  # EOF (a trailing partial frame is ignored)
            frames += 1
            if args.mode == "sleep" and args.sleep_ms > 0:
                time.sleep(args.sleep_ms / 1000.0)
            if out is not None and per_frame_out:
                out.write(b"\0" * per_frame_out)
            if args.fail_after is not None and frames >= args.fail_after:
                print(f"mock encoder: simulated failure after {frames} frames",
                      file=sys.stderr)
                return 1
            if args.stop_after is not None and frames >= args.stop_after:
                return 0
        if out is not None and args.emit_total_bytes is not None:
            out.write(b"\0" * args.emit_total_bytes)
    finally:
        if out is not None and out is not sys.stdout.buffer:
            out.close()
        elif out is not None:
            out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
