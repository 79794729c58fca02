"""Child-process scorer protocol.

The caller writes one JSON object per line to the child's stdin:

    {"id": "...", "text": "..."}

and the child answers, in any order it likes, one line per request:

    {"id": "...", "logprob": <float <= 0>, "num_tokens": <int >= 1>}

Scores are total natural-log probabilities; the child may tokenize
however it wants, only the per-sentence total matters. Stdin is closed
after the last request; the child must answer every id and exit 0. Its
stdout goes to an unnamed temporary file, so the caller holds no copy of
the answers; once the child exits, they are read back line by line,
split on "\n" alone. Any deviation (unparseable line, unknown or
duplicate id, a logprob that is not a JSON number or is positive or NaN,
num_tokens that is not a JSON integer, missing answers, nonzero exit,
batch timeout) raises ExternalScorerError naming the offending line or
ids; true, false and numbers in strings are refused, not converted.
``check_score`` holds the rules of one score's values; the score TSV
reader, whose fields are text, applies them too.

``ExternalScorer`` holds the command, its timeout and, inside its
context, the child started for the next batch. Its scores carry no scorer
or checkpoint label: a checkpoint is named where the scores are evaluated
(``evaluate.Labels``, ``eval --checkpoint``).
"""

from __future__ import annotations

import shlex
import subprocess
import tempfile
from json.encoder import encode_basestring as _encode
from typing import BinaryIO, Iterable, Sequence

from ..atomic import loads_line


class ExternalScorerError(Exception):
    pass


_LISTED = 10  # ids an error message names before it gives their total


def _listed(ids: Iterable[str]) -> str:
    ids = sorted(ids)
    shown = ", ".join(ids[:_LISTED])
    if len(ids) > _LISTED:
        shown += f", ... ({len(ids)} total)"
    return shown


def check_score(logprob, num_tokens) -> tuple[float, int]:
    """A score's (logprob, num_tokens) as a float and an int, if they keep
    the protocol's rules: a logprob <= 0 that is not NaN, num_tokens >= 1.
    Else a ValueError saying which rule the score breaks."""
    try:
        logprob = float(logprob)
    except (TypeError, ValueError):
        raise ValueError(f"logprob {logprob!r} is not a number") from None
    try:
        num_tokens = int(num_tokens)
    except (TypeError, ValueError):
        raise ValueError(f"num_tokens {num_tokens!r} is not an integer") from None
    if not logprob <= 0:
        raise ValueError(f"positive logprob {logprob}" if logprob > 0 else "logprob is NaN")
    if num_tokens < 1:
        raise ValueError(f"num_tokens must be >= 1, got {num_tokens}")
    return logprob, num_tokens


def _argv(command: str | Sequence[str]) -> list[str]:
    return shlex.split(command) if isinstance(command, str) else list(command)


def _request(items: Sequence[tuple[str, str]]) -> bytearray:
    """The request, built once as bytes: each line is
    ``json.dumps({"id": ..., "text": ...}, ensure_ascii=False)`` byte for
    byte, without its per-line overhead."""
    request = bytearray()
    for item_id, text in items:
        request += f'{{"id": {_encode(item_id)}, "text": {_encode(text)}}}\n'.encode("utf-8")
    return request


def _launch(argv: list[str]) -> subprocess.Popen:
    """Start a scorer child with piped stdin and stderr. Its stdout goes
    to an unnamed temporary file, kept as the child's ``answers`` and read
    once it exits; ``_reap`` closes it."""
    answers = tempfile.TemporaryFile()
    try:
        child = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=answers, stderr=subprocess.PIPE
        )
    except OSError as exc:
        answers.close()
        raise ExternalScorerError(f"could not launch external scorer: {exc}")
    child.answers = answers
    return child


def _reap(child: subprocess.Popen) -> None:
    """Kill the child if it still runs, wait for it, and close its pipes
    and its answers file."""
    child.kill()  # a no-op once the child has been waited for
    with child, child.answers:
        pass


def _read_answers(answers: BinaryIO, expected: set[str]) -> dict[str, tuple[float, int]]:
    """The child's answers, read back from their file as JSON Lines: split
    on "\n" alone. A JSON string never holds a raw newline, but it may
    hold U+2028 or U+0085, where ``str.splitlines`` would break it."""
    answers.seek(0)
    results: dict[str, tuple[float, int]] = {}
    for lineno, line in enumerate(answers, start=1):
        try:
            line = line.decode("utf-8")
            if not line.strip():
                continue
            row = loads_line(line)
        except ValueError as exc:  # a JSON or a UTF-8 decoding error
            raise ExternalScorerError(f"response line {lineno}: not valid JSON ({exc})") from None
        if not isinstance(row, dict) or "id" not in row:
            raise ExternalScorerError(f"response line {lineno}: missing id")
        rid = row["id"]
        if rid not in expected:
            raise ExternalScorerError(f"response line {lineno}: unknown id {rid!r}")
        if rid in results:
            raise ExternalScorerError(f"response line {lineno}: duplicate id {rid!r}")
        logprob, num_tokens = row.get("logprob"), row.get("num_tokens")
        try:  # JSON types, not conversions: a bool, a string or 2.5 tokens is refused
            if type(logprob) not in (int, float):
                raise ValueError(f"logprob {logprob!r} is not a number")
            if type(num_tokens) is not int:
                raise ValueError(f"num_tokens {num_tokens!r} is not an integer")
            results[rid] = check_score(logprob, num_tokens)
        except ValueError as exc:
            raise ExternalScorerError(f"response line {lineno} (id {rid!r}): {exc}") from None
    return results


def external_score(
    command: str | Sequence[str],
    items: Sequence[tuple[str, str]],
    timeout: float = 300.0,
    child: subprocess.Popen | None = None,
) -> dict[str, tuple[float, int]]:
    """Score (id, text) items through one child process; returns id -> (logprob, num_tokens).

    ``child`` is a child already started for ``command``; without one, a
    child is launched here. Either way the child is reaped, and its
    answers file closed, before this returns or raises. The timeout
    counts from when the request is sent.
    """
    argv = _argv(command)
    try:
        expected = {item_id for item_id, _ in items}
        if len(expected) != len(items):
            raise ExternalScorerError("request ids must be unique")
        request = _request(items)
        if child is None:
            child = _launch(argv)
        try:
            _stdout, stderr = child.communicate(request, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise ExternalScorerError(
                f"external scorer timed out after {timeout}s: {argv[0]}"
            ) from None
        request.clear()  # sent: the child object keeps a reference to it
        results = _read_answers(child.answers, expected)
        missing = expected - set(results)
        if missing:
            raise ExternalScorerError(
                f"external scorer exited before answering: missing ids {_listed(missing)}"
            )
        if child.returncode != 0:
            stderr = stderr.decode("utf-8", "replace").strip()
            raise ExternalScorerError(
                f"external scorer exited with status {child.returncode}"
                + (f": {stderr[:200]}" if stderr else "")
            )
    finally:
        if child is not None:
            _reap(child)
    return results


class ExternalScorer:
    """Wraps a command so it can stand in wherever a native model scores.

    Used as a context manager, it starts its child on entry, so the
    child's interpreter starts while the caller loads the batch; the next
    ``score_texts`` sends its batch to that child. Leaving the context
    kills and reaps a child that no batch took. Each later batch, and
    every batch outside a context, gets a fresh child.
    """

    def __init__(self, command: str | Sequence[str], timeout: float = 300.0):
        self.command = command
        self.timeout = timeout
        self._child: subprocess.Popen | None = None

    def __enter__(self) -> "ExternalScorer":
        self._child = _launch(_argv(self.command))
        return self

    def __exit__(self, *exc_info) -> None:
        child, self._child = self._child, None
        if child is not None:
            _reap(child)

    def score_texts(self, items: Sequence[tuple[str, str]]) -> dict[str, tuple[float, int]]:
        child, self._child = self._child, None
        return external_score(self.command, items, timeout=self.timeout, child=child)
