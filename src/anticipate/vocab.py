"""Token-vocabulary layouts for the two sequence codecs.

The arrival codec encodes each event as a (time, duration, note) triple with
absolute quantized times. The vocabulary is doubled so anticipated controls
are distinguishable from plain events: the control ranges sit at a fixed
offset (+27513) above the event ranges, which makes the event/control
mapping a pure token-space shift.

The interarrival codec encodes onset and offset tokens separated by gap
tokens (zero gaps omitted).
"""

from __future__ import annotations

from .events import MAX_DURATION_UNITS, MAX_TIME_UNITS, NUM_NOTE_CODES


class ArrivalVocab:
    """Token layout for the arrival-time codec (size 55028).

    The range tests take a token or an integer array of tokens.
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

    @classmethod
    def is_plain_time(cls, tok: int) -> bool:
        return (cls.TIME_BASE <= tok) & (tok < cls.DUR_BASE)

    @classmethod
    def is_plain_duration(cls, tok: int) -> bool:
        return (cls.DUR_BASE <= tok) & (tok < cls.NOTE_BASE)

    @classmethod
    def is_plain_note(cls, tok: int) -> bool:
        return (cls.NOTE_BASE <= tok) & (tok < cls.REST)

    @classmethod
    def is_control_time(cls, tok: int) -> bool:
        return (cls.ANT_TIME_BASE <= tok) & (tok < cls.ANT_DUR_BASE)

    @classmethod
    def is_control_duration(cls, tok: int) -> bool:
        return (cls.ANT_DUR_BASE <= tok) & (tok < cls.ANT_NOTE_BASE)

    @classmethod
    def is_control_note(cls, tok: int) -> bool:
        return (cls.ANT_NOTE_BASE <= tok) & (tok < cls.SEP)


class InterarrivalVocab:
    """Token layout for the interarrival-time codec (size 34025).

    The range tests take a token or an integer array of tokens.
    """

    GAP_BASE = 0
    ONSET_BASE = MAX_DURATION_UNITS  # 1000
    OFFSET_BASE = ONSET_BASE + NUM_NOTE_CODES  # 17512
    SEP = OFFSET_BASE + NUM_NOTE_CODES  # 34024
    SIZE = SEP + 1  # 34025

    @classmethod
    def is_gap(cls, tok: int) -> bool:
        return (cls.GAP_BASE <= tok) & (tok < cls.ONSET_BASE)

    @classmethod
    def is_onset(cls, tok: int) -> bool:
        return (cls.ONSET_BASE <= tok) & (tok < cls.OFFSET_BASE)

    @classmethod
    def is_offset(cls, tok: int) -> bool:
        return (cls.OFFSET_BASE <= tok) & (tok < cls.SEP)


CODEC_VOCABS = {"arrival": ArrivalVocab, "interarrival": InterarrivalVocab}
