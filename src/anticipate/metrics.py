"""Log-loss accounting: per-token cross entropy bucketed by token role
(the triple slots, SEP and control, as the tokenizer assigns them),
per-event perplexity decomposition, and the bits-per-second conversion that
makes losses comparable across codecs.

Bits per second is the event-token log-loss divided by the seconds of music
scored: ``L`` nats/token becomes ``L / ln(2) * token_count / total_seconds``,
where the token count is always ``LossReport.n_event_tokens``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .events import EventSequence, InterleavedSequence, UNITS_PER_SECOND
from .predictor import Predictor
from .tokenizer import TokenError, _codec_vocab, _scored_row, encode_interarrival


@dataclass(frozen=True)
class CorpusStats:
    """Token and duration totals for one codec's view of a corpus."""

    token_count: int
    total_seconds: float
    codec: str = "arrival"

    def __post_init__(self) -> None:
        if self.token_count < 0 or self.total_seconds < 0:
            raise ValueError("counts must be non-negative")


def total_seconds(sequences: Iterable[InterleavedSequence | EventSequence]) -> float:
    """The seconds of music in ``sequences``, each measured to its last note offset."""
    seconds = 0.0
    for seq in sequences:
        seconds += seq.end_time / UNITS_PER_SECOND
    return seconds


def corpus_stats(
    sequences: Iterable[InterleavedSequence | EventSequence], codec: str
) -> CorpusStats:
    """The event tokens a codec scores in whole-sequence rows (3 per plain
    item under arrival, controls excluded), and their ``total_seconds``."""
    _codec_vocab(codec)  # refuses a name that is not a codec
    sequences = list(sequences)
    tokens = 0
    for seq in sequences:
        if codec == "arrival":
            tokens += 3 * len(seq.events() if isinstance(seq, InterleavedSequence) else seq)
        else:
            tokens += len(encode_interarrival(seq))
    return CorpusStats(tokens, total_seconds(sequences), codec)


def bits_per_second(nats_per_token: float, stats: CorpusStats) -> float:
    """Convert a per-token loss in nats to encoding-agnostic bits per second."""
    if nats_per_token < 0:
        raise ValueError("loss must be non-negative")
    if stats.total_seconds <= 0:
        raise ValueError("total_seconds must be positive")
    return nats_per_token / math.log(2) * stats.token_count / stats.total_seconds


@dataclass
class LossReport:
    """Accumulated cross-entropy, bucketed by token role.

    For the arrival codec the event loss splits into time/duration/note
    slots, one token of each per event, so the per-event perplexity is
    exactly the product of the slot perplexities. Separator tokens are
    accumulated separately; control-range tokens never enter the event
    buckets.
    """

    codec: str
    n_events: int = 0
    nats_time: float = 0.0
    nats_duration: float = 0.0
    nats_note: float = 0.0
    nats_sep: float = 0.0
    n_sep_tokens: int = 0
    nats_control: float = 0.0
    n_control_tokens: int = 0
    infinite_positions: list[tuple[int, int]] = field(default_factory=list)

    @property
    def nats_event(self) -> float:
        return self.nats_time + self.nats_duration + self.nats_note

    @property
    def n_event_tokens(self) -> int:
        return 3 * self.n_events if self.codec == "arrival" else self.n_events

    @property
    def nats_per_token(self) -> float:
        """Mean loss over event tokens (separators and controls excluded)."""
        return self.nats_event / self.n_event_tokens if self.n_event_tokens else 0.0

    @property
    def nats_per_token_with_sep(self) -> float:
        total = self.nats_event + self.nats_sep
        count = self.n_event_tokens + self.n_sep_tokens
        return total / count if count else 0.0

    def _ppl(self, nats: float) -> float:
        return math.exp(nats / self.n_events) if self.n_events else 1.0

    @property
    def ppl_event(self) -> float:
        return self._ppl(self.nats_event)

    @property
    def ppl_time(self) -> float:
        return self._ppl(self.nats_time)

    @property
    def ppl_duration(self) -> float:
        return self._ppl(self.nats_duration)

    @property
    def ppl_note(self) -> float:
        return self._ppl(self.nats_note)


def cross_entropy(
    predictor: Predictor,
    rows: Iterable[Sequence[int]],
    codec: str,
) -> LossReport:
    """Accumulate per-token negative log-likelihood over token rows.

    Rows may carry a leading control code, which conditions the predictor
    and is excluded from the loss; otherwise arrival rows are scored under
    the no-anticipation code AR and interarrival rows under none. A
    zero-probability ground-truth token is recorded in
    ``infinite_positions``. A token outside the predictor's vocabulary, or
    an arrival triple that ``decode_arrival`` calls malformed (one that
    mixes event, SEP and control tokens, or holds a code or any other
    out-of-slot token), raises ``TokenError`` before its row is scored, so
    every triple scored has the roles its slots give it. So does an arrival
    row that is not whole triples, and a predictor whose ``vocab_size`` is not
    the codec's, at the first row; a name that is not a codec raises
    ``ValueError`` before any row. Positions follow any code. One tokenizer
    call per row (``tokenizer._scored_row``) gives its code, tokens and roles.
    """
    _codec_vocab(codec)
    report = LossReport(codec)
    nats_by_role = [0.0] * 5  # by role: time, duration, note, SEP, control
    count_by_role = [0] * 5
    for row_index, row in enumerate(rows):
        try:
            z, tokens, roles = _scored_row(row, codec, predictor.vocab_size)
        except TokenError as exc:
            raise TokenError(f"row {row_index}: {exc}") from exc
        context: list[int] = []
        for position, (token, role) in enumerate(zip(tokens, roles.tolist())):
            p = predictor.next_distribution(z, context).probability(token)
            context.append(token)
            if p <= 0.0:
                report.infinite_positions.append((row_index, position))
                nats = math.inf
            else:
                nats = -math.log(p)
            nats_by_role[role] += nats
            count_by_role[role] += 1
    (report.nats_time, report.nats_duration, report.nats_note,
     report.nats_sep, report.nats_control) = nats_by_role
    report.n_events, _, _, report.n_sep_tokens, report.n_control_tokens = count_by_role
    return report


_ROW_FIELDS = ("codec", "events", "nats_per_token", "ppl_event", "ppl_time", "ppl_duration",
               "ppl_note", "bits_per_second")


def _report_fields(report: LossReport, seconds: float) -> dict[str, str]:
    """The text of each reported quantity, in ``format_report``'s order."""
    stats = CorpusStats(report.n_event_tokens, seconds, report.codec)
    return {
        "codec": report.codec,
        "events": str(report.n_events),
        "nats_per_token": f"{report.nats_per_token:.6f}",
        "nats_per_token_with_sep": f"{report.nats_per_token_with_sep:.6f}",
        "sep_tokens": str(report.n_sep_tokens),
        "control_tokens": str(report.n_control_tokens),
        "infinite_losses": str(len(report.infinite_positions)),
        "ppl_event": f"{report.ppl_event:.4f}",
        "ppl_time": f"{report.ppl_time:.4f}",
        "ppl_duration": f"{report.ppl_duration:.4f}",
        "ppl_note": f"{report.ppl_note:.4f}",
        "tokens": str(report.n_event_tokens),
        "seconds": f"{seconds:.2f}",
        "bits_per_second": f"{bits_per_second(report.nats_per_token, stats):.4f}",
    }


def format_report(report: LossReport, seconds: float) -> str:
    """Render a loss report, with the bits per second over the ``seconds`` of
    the scored music, as key=value lines; slot perplexities for arrival only."""
    slots = report.codec == "arrival"
    return "\n".join(f"{key}={text}" for key, text in _report_fields(report, seconds).items()
                     if slots or not key.startswith("ppl_"))


def report_row(report: LossReport, seconds: float) -> str:
    """Render the report's ``_ROW_FIELDS`` as one machine-readable tab-separated row."""
    fields = _report_fields(report, seconds)
    return "\t".join(fields[key] for key in _ROW_FIELDS)
