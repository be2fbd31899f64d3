"""Bridge to an out-of-process predictor over a line protocol.

Request:  ``CTX <control-code> <t1> ... <tk>\\n`` where the control code is a
token integer or ``-`` when absent. Response: ``DIST <token>:<prob> ...\\n``
with sparse pairs; omitted tokens have probability zero and the listed
probabilities must sum to one. Responses must arrive within the configured
timeout.

``serve`` runs the other side of the protocol, exposing any in-process
predictor on stdio so it can back a subprocess bridge. It answers an unknown
or malformed request with an ``ERR <reason>`` line and keeps serving.
"""

from __future__ import annotations

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
    fields = line.split()
    if not fields or fields[0] != "DIST":
        raise PredictorProtocolError(f"expected DIST response, got {line!r}")
    dist = np.zeros(vocab_size, dtype=np.float64)
    for pair in fields[1:]:
        token_str, _, prob_str = pair.partition(":")
        try:
            token, prob = int(token_str), float(prob_str)
        except ValueError as exc:
            raise PredictorProtocolError(f"malformed pair {pair!r}") from exc
        if not 0 <= token < vocab_size:
            raise PredictorProtocolError(f"token {token} outside vocabulary")
        if prob < 0 or not np.isfinite(prob):
            raise PredictorProtocolError(f"invalid probability {prob!r}")
        dist[token] += prob
    total = dist.sum()
    if abs(total - 1.0) > PROB_TOLERANCE:
        raise PredictorProtocolError(f"probabilities sum to {total!r}, expected 1")
    return dist


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
        context = list(context)[-(self.context_length - 1):]
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
                dist = predictor.next_distribution(z, context)
                nonzero = np.flatnonzero(dist)
                reply = "DIST " + " ".join(f"{int(i)}:{float(dist[i])!r}" for i in nonzero)
        out_stream.write(reply + "\n")
        out_stream.flush()
