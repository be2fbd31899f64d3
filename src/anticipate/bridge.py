"""Bridge to an out-of-process predictor over a line protocol.

Request:  ``CTX <control-code> <t1> ... <tk>\\n`` where the control code is a
token integer or ``-`` when absent. Response: ``DIST <payload>\\n``, the
base64 of all ``vocab_size`` probabilities as little-endian float64: dense
because a smoothed model gives every token some mass, and float64 so that a
bridged predictor samples exactly as it would in process. The probabilities
must be finite, non-negative and sum to one, and arrive within the timeout.

``serve`` runs the other side of the protocol, exposing any in-process
predictor on stdio so it can back a subprocess bridge. It answers an unknown
or malformed request with an ``ERR <reason>`` line and keeps serving.
"""

from __future__ import annotations

import base64
import os
import select
import subprocess
import time
from typing import IO, Sequence

import numpy as np

from .predictor import Predictor
from .tokenizer import CONTEXT_LENGTH

PROB_TOLERANCE = 1e-6


class PredictorProtocolError(RuntimeError):
    """The external predictor broke the line protocol."""


def format_request(z: int | None, context: Sequence[int]) -> str:
    code = "-" if z is None else str(z)
    return " ".join(["CTX", code, *map(str, context)])


def parse_response(line: str, vocab_size: int) -> np.ndarray:
    verb, _, payload = line.partition(" ")
    if verb != "DIST":
        raise PredictorProtocolError(f"expected DIST response, got {line[:80]!r}")
    try:
        dist = np.frombuffer(base64.b64decode(payload, validate=True), dtype="<f8")
    except ValueError as exc:
        raise PredictorProtocolError(f"malformed DIST payload ({exc})") from exc
    if len(dist) != vocab_size:
        raise PredictorProtocolError(f"{len(dist)} probabilities, expected {vocab_size}")
    if not (np.isfinite(dist).all() and (dist >= 0).all()):
        raise PredictorProtocolError("negative or non-finite probability")
    total = dist.sum()
    if abs(total - 1.0) > PROB_TOLERANCE:
        raise PredictorProtocolError(f"probabilities sum to {total!r}, expected 1")
    return dist.astype(np.float64)


class ExternalPredictor:
    """Run a predictor subprocess and satisfy the in-process contract."""

    def __init__(
        self,
        command: Sequence[str],
        vocab_size: int,
        context_length: int = CONTEXT_LENGTH,
        timeout: float = 10.0,
    ):
        self.vocab_size = vocab_size
        self.context_length = context_length
        self.timeout = timeout
        self._proc = subprocess.Popen(list(command), stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._pending = bytearray()  # reply bytes read past the last newline

    def next_distribution(self, z: int | None, context: Sequence[int]) -> np.ndarray:
        proc = self._proc
        if proc.poll() is not None:
            raise PredictorProtocolError("predictor subprocess has exited")
        context = context[max(0, len(context) - (self.context_length - 1)):]
        proc.stdin.write((format_request(z, context) + "\n").encode("ascii"))
        proc.stdin.flush()
        return parse_response(self._read_line(), self.vocab_size)

    def _read_line(self) -> str:
        """Read one reply line, all of it within ``timeout`` seconds.

        Reads the pipe directly: ``select`` only says that some bytes are
        readable, so a buffered ``readline`` could wait past the deadline for
        the rest of the line.
        """
        deadline = time.monotonic() + self.timeout
        fd = self._proc.stdout.fileno()
        pending = self._pending
        searched = 0
        while (end := pending.find(b"\n", searched)) < 0:
            searched = len(pending)
            ready, _, _ = select.select([fd], [], [], max(deadline - time.monotonic(), 0))
            if not ready:
                raise TimeoutError(f"no complete response within {self.timeout}s")
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                raise PredictorProtocolError("predictor closed its output stream")
            pending += chunk
        line = pending[:end].decode("utf-8", errors="replace")
        del pending[: end + 1]
        return line

    def close(self) -> None:
        """Stop the child and close both of its pipes, whether or not it is
        still running."""
        proc = self._proc
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass  # the child is gone; the pipe is closed regardless
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def __enter__(self) -> "ExternalPredictor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve(predictor: Predictor, in_stream: IO[str], out_stream: IO[str]) -> None:
    """Answer bridge requests with an in-process predictor until EOF."""
    for raw in in_stream:
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] != "CTX":
            reply = "ERR unknown request"
        else:
            try:
                z = None if fields[1] == "-" else int(fields[1])
                context = [int(t) for t in fields[2:]]
            except (IndexError, ValueError):
                reply = "ERR malformed request"
            else:
                dist = np.asarray(predictor.next_distribution(z, context), dtype="<f8")
                reply = "DIST " + base64.b64encode(dist.tobytes()).decode("ascii")
        out_stream.write(reply + "\n")
        out_stream.flush()
