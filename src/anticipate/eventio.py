"""Plain-text serialization for event sequences.

One event per line as three space-separated unsigned ASCII decimals ``t d n``
in grid units, with ``R`` in the note column for rests. Lines starting with
``C `` mark control events. A blank line separates sequences.

Both directions work on a sequence's columns: the writer formats each column,
and the reader checks each line by the token files' digit rule and the one
event field rule (:func:`anticipate.events._check_event`) and stacks a
sequence's fields into its columns. No item object is built.
"""

from __future__ import annotations

import itertools
from typing import IO, Iterable

from .events import REST, EventSequence, InterleavedSequence, _array, _check_event
from .tokenizer import TokenError, _is_digits


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
    are not representable. A malformed line, a field that is not an unsigned
    ASCII decimal (or ``R`` as a note) or an out-of-range one, an end past
    int64 included, raises ``TokenError`` naming the 1-based line as soon as
    it is read; an out-of-order stream or a rest control raises it naming
    the lines of the sequence once the sequence ends.
    """
    sequences: list[InterleavedSequence] = []
    values: list[int] = []  # time, duration, note and control of each line, flat
    # a blank line after the input closes the last sequence
    for lineno, line in enumerate(itertools.chain(f, [""]), start=1):
        if fields := line.split():
            if control := fields[0] == "C":
                del fields[0]
            try:
                if len(fields) != 3:
                    raise ValueError(f"malformed event line: {line.strip()!r}")
                time, duration, note = fields
                if not _is_digits(time + duration + ("" if note == "R" else note)):
                    for name, text in zip(("time", "duration", "note"), (time, duration, note)):
                        if not (_is_digits(text) or (name, text) == ("note", "R")):
                            raise ValueError(f"{name} {text[:80]!r} is not an unsigned decimal")
                time, duration = int(time), int(duration)
                note = REST if note == "R" else int(note)
                _check_event(time, duration, note)
            except ValueError as exc:
                raise TokenError(f"line {lineno}: {exc}") from exc
            values += time, duration, note, control
        elif values:
            try:
                columns = _array(values, 4)
                InterleavedSequence._check(columns)
            except ValueError as exc:
                first = lineno - len(values) // 4
                raise TokenError(f"sequence on lines {first}-{lineno - 1}: {exc}") from exc
            sequences.append(InterleavedSequence._of(columns))
            values = []
    return sequences
