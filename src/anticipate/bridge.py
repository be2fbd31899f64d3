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
import select
import subprocess
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
        self._proc = subprocess.Popen(
            list(command),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )

    def next_distribution(self, z: int | None, context: Sequence[int]) -> np.ndarray:
        proc = self._proc
        if proc.poll() is not None:
            raise PredictorProtocolError("predictor subprocess has exited")
        context = context[max(0, len(context) - (self.context_length - 1)):]
        proc.stdin.write(format_request(z, context) + "\n")
        proc.stdin.flush()
        ready, _, _ = select.select([proc.stdout], [], [], self.timeout)
        if not ready:
            raise TimeoutError(f"no response within {self.timeout}s")
        line = proc.stdout.readline()
        if not line:
            raise PredictorProtocolError("predictor closed its output stream")
        return parse_response(line.rstrip("\n"), self.vocab_size)

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()

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
