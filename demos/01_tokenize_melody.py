#!/usr/bin/env python3
"""Walk a familiar melody through both token codecs.

The first four bars of "Twinkle, Twinkle, Little Star" (piano, quarter=120)
are the running example for the whole toolkit: fourteen quantized events,
each a (time, duration, note) triple on a 10ms grid.
"""

from anticipate.golden import twinkle_events, twinkle_full_beat_events
from anticipate.tokenizer import (
    decode_arrival,
    decode_interarrival,
    encode_arrival,
    encode_interarrival,
)
from anticipate.vocab import ArrivalVocab

twinkle = twinkle_events()
print("events (time, duration, note), 10ms units:")
for event in twinkle:
    print(f"  t={event.time:4d}  d={event.duration:3d}  note={event.note}"
          f"  (instrument {event.instrument}, pitch {event.pitch})")

# Arrival-time codec: absolute times, three tokens per event. A training
# example prefixes the control code (AR here: no anticipated content) and a
# separator triple.
arrival = encode_arrival(twinkle, z=ArrivalVocab.AR)
print(f"\narrival tokens ({len(arrival)}):\n  {arrival}")

# The triples are context-free: the decoder only needs token ranges.
decoded = decode_arrival(arrival)
assert decoded[0].events() == twinkle
print("decoded back to the same fourteen events")

# Interarrival codec: onset/offset tokens with gap tokens between, zero gaps
# omitted. Detached articulation (480ms notes) keeps every gap.
detached = encode_interarrival(twinkle, leading_sep=True)
print(f"\ninterarrival tokens, detached articulation ({len(detached)}):\n  {detached}")

# Hold every note to the full beat and the onset-to-next-onset gaps vanish,
# so the same melody costs fewer tokens.
legato = encode_interarrival(twinkle_full_beat_events(), leading_sep=True)
print(f"\ninterarrival tokens, legato ({len(legato)}):\n  {legato}")

assert decode_interarrival(detached) == twinkle
assert decode_interarrival(legato) == twinkle_full_beat_events()
print("\nboth listings decode back exactly")
