"""Reference vectors and self-checks wired to the ``golden`` CLI subcommand.

The melody is the first four bars of "Twinkle, Twinkle, Little Star" on
piano at quarter=120, in two articulations: detached notes (480ms, with the
longer notes at 950ms) and full-beat notes (500ms/1000ms). Their token
encodings, the three small interleaving scenarios, and the loss-conversion
constants below are frozen; the check suite verifies the library reproduces
every one of them bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .anticipation import densify, interleave, sort_order_interleave
from .events import Event, EventSequence, InterleavedSequence, encode_note
from .metrics import CorpusStats, bits_per_second
from .midi import parse_midi, write_midi
from .tokenizer import decode_arrival, decode_interarrival, encode_arrival, encode_interarrival
from .vocab import ArrivalVocab as AV

_TWINKLE_TIMES = (0, 50, 100, 150, 200, 250, 300, 400, 450, 500, 550, 600, 650, 700)
_TWINKLE_PITCHES = (60, 60, 67, 67, 69, 69, 67, 65, 65, 64, 64, 62, 62, 60)
_LONG_NOTES = (6, 13)  # the "star" and final notes are held longer


def twinkle_events() -> EventSequence:
    """The detached-articulation melody (480ms notes, 950ms held notes)."""
    return EventSequence(
        Event(t, 95 if i in _LONG_NOTES else 48, encode_note(0, p))
        for i, (t, p) in enumerate(zip(_TWINKLE_TIMES, _TWINKLE_PITCHES))
    )


def twinkle_full_beat_events() -> EventSequence:
    """The legato variant: every note held to the next beat."""
    return EventSequence(
        Event(t, 100 if i in _LONG_NOTES else 50, encode_note(0, p))
        for i, (t, p) in enumerate(zip(_TWINKLE_TIMES, _TWINKLE_PITCHES))
    )


# fmt: off
TWINKLE_ARRIVAL_TOKENS = [
    55026, 55025, 55025, 55025,
    0, 10048, 11060, 50, 10048, 11060, 100, 10048, 11067, 150, 10048, 11067,
    200, 10048, 11069, 250, 10048, 11069, 300, 10095, 11067, 400, 10048, 11065,
    450, 10048, 11065, 500, 10048, 11064, 550, 10048, 11064, 600, 10048, 11062,
    650, 10048, 11062, 700, 10095, 11060,
]

TWINKLE_INTERARRIVAL_TOKENS = [
    34024,
    1060, 48, 17572, 2, 1060, 48, 17572, 2, 1067, 48, 17579, 2, 1067, 48, 17579, 2,
    1069, 48, 17581, 2, 1069, 48, 17581, 2, 1067, 95, 17579, 5, 1065, 48, 17577, 2,
    1065, 48, 17577, 2, 1064, 48, 17576, 2, 1064, 48, 17576, 2, 1062, 48, 17574, 2,
    1062, 48, 17574, 2, 1060, 95, 17572,
]

TWINKLE_FULL_BEAT_INTERARRIVAL_TOKENS = [
    34024,
    1060, 50, 17572, 1060, 50, 17572, 1067, 50, 17579, 1067, 50, 17579,
    1069, 50, 17581, 1069, 50, 17581, 1067, 100, 17579, 1065, 50, 17577,
    1065, 50, 17577, 1064, 50, 17576, 1064, 50, 17576, 1062, 50, 17574,
    1062, 50, 17574, 1060, 100, 17572,
]
# fmt: on


def _mark(time: int) -> Event:
    return Event(time, 10, encode_note(0, 72))


# Three small interleaving scenarios (times in grid units; 100 = 1 second).
# Scenario A: a control 5s ahead lands between the 3s and 5s events.
SCENARIO_A = {
    "events": EventSequence([_mark(100), _mark(300), _mark(500)]),
    "controls": EventSequence([Event(700, 10, encode_note(0, 48))]),
    "delta": 500,
    "order": "eeue",
}
# Scenario B: a sparse stream surfaces the control after its own time.
SCENARIO_B = {
    "events": EventSequence([_mark(100), _mark(200), _mark(500)]),
    "controls": EventSequence([Event(450, 10, encode_note(0, 48))]),
    "delta": 200,
    "order": "eeeu",
}
# Scenario C: rest insertion at 1s density fixes scenario B's late control.
SCENARIO_C_ORDER = "eeeuee"

# Published reference numbers for the loss pipeline: a small arrival-codec
# model's per-slot perplexities and the test-set accounting they convert
# through (token count and hours of audio).
REFERENCE_SLOT_PPL = (1.59, 3.90, 2.40)
REFERENCE_EVENT_PPL = 14.9
REFERENCE_TEST_TOKENS = 125_050_497
REFERENCE_TEST_HOURS = 560.98
REFERENCE_BITS_PER_SECOND = 80.4


@dataclass
class GoldenCheck:
    name: str
    passed: bool
    detail: str = ""


def _ordering(seq: InterleavedSequence) -> str:
    return "".join("u" if item.control else "e" for item in seq)


def run_checks() -> list[GoldenCheck]:
    """Run every golden comparison; all must pass on a healthy build."""
    checks: list[GoldenCheck] = []

    def check(name: str, actual, expected) -> None:
        passed = actual == expected
        detail = "" if passed else f"expected {expected!r}, got {actual!r}"
        checks.append(GoldenCheck(name, passed, detail))

    twinkle = twinkle_events()
    legato = twinkle_full_beat_events()

    check("note-codec", encode_note(0, 60), 60)
    check(
        "arrival-encode",
        encode_arrival(twinkle, z=AV.AR),
        TWINKLE_ARRIVAL_TOKENS,
    )
    check(
        "arrival-decode",
        decode_arrival(TWINKLE_ARRIVAL_TOKENS),
        [InterleavedSequence.from_events(twinkle)],
    )
    check(
        "interarrival-encode",
        encode_interarrival(twinkle, leading_sep=True),
        TWINKLE_INTERARRIVAL_TOKENS,
    )
    check("interarrival-decode", decode_interarrival(TWINKLE_INTERARRIVAL_TOKENS), twinkle)
    check(
        "interarrival-encode-full-beat",
        encode_interarrival(legato, leading_sep=True),
        TWINKLE_FULL_BEAT_INTERARRIVAL_TOKENS,
    )
    check(
        "interarrival-decode-full-beat",
        decode_interarrival(TWINKLE_FULL_BEAT_INTERARRIVAL_TOKENS),
        legato,
    )

    a = interleave(SCENARIO_A["events"], SCENARIO_A["controls"], SCENARIO_A["delta"])
    check("interleave-ahead", _ordering(a), SCENARIO_A["order"])
    naive = sort_order_interleave(
        SCENARIO_A["events"], SCENARIO_A["controls"], SCENARIO_A["delta"]
    )
    checks.append(
        GoldenCheck(
            "interleave-not-sort-order",
            list(a) != list(naive) and _ordering(naive) == "euee",
            f"interleave {_ordering(a)} vs sort order {_ordering(naive)}",
        )
    )

    b = interleave(SCENARIO_B["events"], SCENARIO_B["controls"], SCENARIO_B["delta"])
    check("interleave-sparse", _ordering(b), SCENARIO_B["order"])

    dense = densify(SCENARIO_B["events"], 100)
    check("densify-times", dense.times(), [100, 200, 300, 400, 500])
    c = interleave(dense, SCENARIO_B["controls"], SCENARIO_B["delta"])
    check("interleave-dense", _ordering(c), SCENARIO_C_ORDER)

    product = math.prod(REFERENCE_SLOT_PPL)
    checks.append(
        GoldenCheck(
            "ppl-decomposition",
            abs(product - REFERENCE_EVENT_PPL) <= 0.1,
            f"{REFERENCE_SLOT_PPL} -> {product:.4f}",
        )
    )
    stats = CorpusStats(REFERENCE_TEST_TOKENS, REFERENCE_TEST_HOURS * 3600.0)
    bps = bits_per_second(math.log(REFERENCE_EVENT_PPL) / 3.0, stats)
    checks.append(
        GoldenCheck(
            "bits-per-second",
            abs(bps - REFERENCE_BITS_PER_SECOND) <= 0.1,
            f"computed {bps:.4f}",
        )
    )

    check("midi-roundtrip", parse_midi(write_midi(twinkle)), twinkle)
    return checks
