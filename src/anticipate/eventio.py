"""Plain-text serialization for event sequences.

One event per line as three space-separated decimal integers ``t d n`` in
grid units, with ``R`` in the note column for rests. Lines starting with
``C `` mark control events. A blank line separates sequences.
"""

from __future__ import annotations

import itertools
from typing import IO, Iterable

from .events import REST, Event, EventSequence, InterleavedSequence, TaggedEvent
from .tokenizer import TokenError


def format_item(time: int, duration: int, note: int, control: int = 0) -> str:
    """One line of the format for an item's column (``control`` 0 or 1)."""
    line = f"{time} {duration} {'R' if note == REST else note}"
    return f"C {line}" if control else line


def parse_line(line: str) -> TaggedEvent:
    fields = line.split()
    control = False
    if fields and fields[0] == "C":
        control = True
        fields = fields[1:]
    if len(fields) != 3:
        raise ValueError(f"malformed event line: {line!r}")
    time, duration = int(fields[0]), int(fields[1])
    note = REST if fields[2] == "R" else int(fields[2])
    return TaggedEvent(Event(time, duration, note), control=control)


def write_events(f: IO[str], sequences: Iterable[InterleavedSequence | EventSequence]) -> None:
    """Write sequences in the event text format, blank-line separated."""
    first = True
    for seq in sequences:
        if not first:
            f.write("\n")
        first = False
        for column in seq.columns.T.tolist():
            f.write(format_item(*column) + "\n")


def read_events(f: IO[str]) -> list[InterleavedSequence]:
    """Read blank-line separated sequences from the event text format.

    Runs of blank lines collapse to a single separator, so empty sequences
    are not representable. A malformed line or an out-of-range field raises
    ``TokenError`` naming the 1-based line.
    """
    sequences: list[InterleavedSequence] = []
    current: list[TaggedEvent] = []
    # a blank line after the input closes the last sequence
    for lineno, raw in enumerate(itertools.chain(f, [""]), start=1):
        line = raw.strip()
        if line:
            try:
                current.append(parse_line(line))
            except ValueError as exc:
                raise TokenError(f"line {lineno}: {exc}") from exc
        elif current:
            try:
                sequences.append(InterleavedSequence(current))
            except ValueError as exc:
                first = lineno - len(current)
                raise TokenError(f"sequence on lines {first}-{lineno - 1}: {exc}") from exc
            current = []
    return sequences
