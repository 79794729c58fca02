"""Crash-safe file writes, and the one CSV writer and JSON writer.

A reader of a path written through ``atomic_write`` sees either the old
file or the whole new one, never a prefix: the text goes to a temp file in
the same directory, which replaces the target with ``os.replace`` only once
it is complete; ``binary`` opens it for bytes (a run's ``prep.npz``
records). A process killed mid-write leaves at most a stray temp file
(``.<name>.<pid>.tmp``) beside the untouched target. There is no fsync, so
this guards against the process dying, not against the machine losing power.
The temp name is per process: two writers in one process must not write
one path at once.

Every result table goes through ``write_csv``, so the CSV format lives here
alone: comma-separated, the csv module's CRLF line ends, a float as its
Python repr, and None as an empty cell. Every JSON record (``cell.json``,
``perturb.json``, ``genreport.json``, ``manifest.json`` and the ``perturb
--report`` file) goes through ``write_json``: one object, sorted keys, a
two-space indent and a final newline. JSON Lines input (pair files,
external-scorer responses) is decoded one line at a time by ``loads_line``.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, newline: str | None = None, binary: bool = False):
    """Open ``path`` for UTF-8 text writing, or for bytes if ``binary``; it
    appears only if the body succeeds."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with (
            open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline=newline)
        ) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, rows) -> None:
    """Write ``rows``, sequences of cells with the header first, through ``atomic_write``."""
    with atomic_write(path, newline="") as fh:
        csv.writer(fh).writerows(rows)


def write_json(path, obj) -> None:
    """Write ``obj`` as one JSON record through ``atomic_write``."""
    with atomic_write(path) as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


_scan = json.JSONDecoder().scan_once


def loads_line(line: str):
    """``json.loads(line)`` for one line of JSON Lines input, with its result
    and its errors.

    A line that is one JSON value from its first character, followed by at
    most a newline, is decoded by the scanner alone, without ``json.loads``'s
    whitespace and trailing-data passes. Any other line goes through
    ``json.loads``, which gives the same value or the exact error.
    """
    try:
        value, end = _scan(line, 0)
    except (StopIteration, ValueError):
        return json.loads(line)
    if end == len(line) or line[end:] == "\n":
        return value
    return json.loads(line)
