"""Token-vocabulary layouts for the two sequence codecs.

The arrival codec encodes each event as a (time, duration, note) triple with
absolute quantized times. The vocabulary is doubled so anticipated controls
are distinguishable from plain events: the control ranges sit at a fixed
offset (+27513) above the event ranges, which makes the event/control
mapping a pure token-space shift.

The interarrival codec encodes onset and offset tokens separated by gap
tokens (zero gaps omitted).

Each vocabulary's range tests (``is_plain_time``, ``is_gap`` …) are bindings
of one half-open rule, ``_in_range(lo, hi)``.
"""

from __future__ import annotations

from .events import MAX_DURATION_UNITS, MAX_TIME_UNITS, NUM_NOTE_CODES


def _in_range(lo: int, hi: int) -> staticmethod:
    """The test that a token, or each token of an integer array, is in ``[lo, hi)``."""
    return staticmethod(lambda tok: (lo <= tok) & (tok < hi))


class ArrivalVocab:
    """Token layout for the arrival-time codec (size 55028).

    Each range test takes a token or an integer array of tokens.
    """

    TIME_BASE = 0
    DUR_BASE = MAX_TIME_UNITS  # 10000
    NOTE_BASE = DUR_BASE + MAX_DURATION_UNITS  # 11000
    REST = NOTE_BASE + NUM_NOTE_CODES  # 27512

    # Control (anticipated) ranges sit at event range + CONTROL_OFFSET.
    CONTROL_OFFSET = REST + 1  # 27513
    ANT_TIME_BASE = TIME_BASE + CONTROL_OFFSET  # 27513
    ANT_DUR_BASE = DUR_BASE + CONTROL_OFFSET  # 37513
    ANT_NOTE_BASE = NOTE_BASE + CONTROL_OFFSET  # 38513

    SEP = ANT_NOTE_BASE + NUM_NOTE_CODES  # 55025
    AR = SEP + 1  # 55026: global code, no anticipated content
    AAR = SEP + 2  # 55027: global code, anticipated content present
    SIZE = AAR + 1  # 55028

    is_plain_time = _in_range(TIME_BASE, DUR_BASE)
    is_plain_duration = _in_range(DUR_BASE, NOTE_BASE)
    is_plain_note = _in_range(NOTE_BASE, REST)
    is_control_time = _in_range(ANT_TIME_BASE, ANT_DUR_BASE)
    is_control_duration = _in_range(ANT_DUR_BASE, ANT_NOTE_BASE)
    is_control_note = _in_range(ANT_NOTE_BASE, SEP)


class InterarrivalVocab:
    """Token layout for the interarrival-time codec (size 34025).

    Each range test takes a token or an integer array of tokens.
    """

    GAP_BASE = 0
    ONSET_BASE = MAX_DURATION_UNITS  # 1000
    OFFSET_BASE = ONSET_BASE + NUM_NOTE_CODES  # 17512
    SEP = OFFSET_BASE + NUM_NOTE_CODES  # 34024
    SIZE = SEP + 1  # 34025

    is_gap = _in_range(GAP_BASE, ONSET_BASE)
    is_onset = _in_range(ONSET_BASE, OFFSET_BASE)
    is_offset = _in_range(OFFSET_BASE, SEP)


CODEC_VOCABS = {"arrival": ArrivalVocab, "interarrival": InterarrivalVocab}
