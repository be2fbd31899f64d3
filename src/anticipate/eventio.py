"""Plain-text serialization for event sequences.

One event per line as three space-separated decimal integers ``t d n`` in
grid units, with ``R`` in the note column for rests. Lines starting with
``C `` mark control events. A blank line separates sequences.

Both directions work on a sequence's columns: the writer formats each column,
and the reader parses each line into a row of fields, checks it by the one
event field rule (:func:`anticipate.events._check_event`) and stacks a
sequence's rows into its columns. No item object is built.
"""

from __future__ import annotations

import itertools
from typing import IO, Iterable

from .events import REST, EventSequence, InterleavedSequence, _array, _check_event
from .tokenizer import TokenError


def format_item(time: int, duration: int, note: int, control: int = 0) -> str:
    """One line of the format for an item's column (``control`` 0 or 1)."""
    line = f"{time} {duration} {'R' if note == REST else note}"
    return f"C {line}" if control else line


def write_events(f: IO[str], sequences: Iterable[InterleavedSequence | EventSequence]) -> None:
    """Write sequences in the event text format, blank-line separated."""
    for i, seq in enumerate(sequences):
        if i:
            f.write("\n")
        for column in seq.columns.T.tolist():
            f.write(format_item(*column) + "\n")


def read_events(f: IO[str]) -> list[InterleavedSequence]:
    """Read blank-line separated sequences from the event text format.

    Runs of blank lines collapse to a single separator, so empty sequences
    are not representable. A malformed line or an out-of-range field, an
    end past int64 included, raises ``TokenError`` naming the 1-based line
    as soon as the line is read; an out-of-order stream or a rest control
    raises it naming the lines of the sequence once the sequence ends.
    """
    sequences: list[InterleavedSequence] = []
    rows: list[tuple[int, int, int, bool]] = []
    # a blank line after the input closes the last sequence
    for lineno, line in enumerate(itertools.chain(f, [""]), start=1):
        if fields := line.split():
            control = fields[0] == "C"
            try:
                if len(fields) != 3 + control:
                    raise ValueError(f"malformed event line: {line.strip()!r}")
                time, duration, note = fields[control:]
                time, duration = int(time), int(duration)
                note = REST if note == "R" else int(note)
                _check_event(time, duration, note)
            except ValueError as exc:
                raise TokenError(f"line {lineno}: {exc}") from exc
            rows.append((time, duration, note, control))
        elif rows:
            try:
                columns = _array(rows, 4)
                InterleavedSequence._check(columns)
            except ValueError as exc:
                first = lineno - len(rows)
                raise TokenError(f"sequence on lines {first}-{lineno - 1}: {exc}") from exc
            sequences.append(InterleavedSequence._of(columns))
            rows = []
    return sequences
