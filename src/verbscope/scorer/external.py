"""Child-process scorer protocol.

The caller writes one JSON object per line to the child's stdin:

    {"id": "...", "text": "..."}

and the child answers, in any order it likes, one line per request:

    {"id": "...", "logprob": <float <= 0>, "num_tokens": <int >= 1>}

Scores are total natural-log probabilities; the child may tokenize
however it wants, only the per-sentence total matters. Stdin is closed
after the last request; the child must answer every id and exit 0. Any
deviation (unparseable line, unknown or duplicate id, positive logprob,
missing answers, nonzero exit, batch timeout) raises
ExternalScorerError naming the offending line or ids.

``ExternalScorer`` holds only the command and its timeout. Its scores
carry no scorer or checkpoint label: a checkpoint is named where the
scores are evaluated (``evaluate.Labels``, ``eval --checkpoint``).
"""

from __future__ import annotations

import json
import shlex
import subprocess
from typing import Iterable, Sequence


class ExternalScorerError(Exception):
    pass


def _listed(ids: Iterable[str], limit: int = 10) -> str:
    ids = sorted(ids)
    shown = ", ".join(ids[:limit])
    if len(ids) > limit:
        shown += f", ... ({len(ids)} total)"
    return shown


def external_score(
    command: str | Sequence[str],
    items: Sequence[tuple[str, str]],
    timeout: float = 300.0,
) -> dict[str, tuple[float, int]]:
    """Score (id, text) items through one child process; returns id -> (logprob, num_tokens)."""
    argv = shlex.split(command) if isinstance(command, str) else list(command)
    expected = {item_id for item_id, _ in items}
    if len(expected) != len(items):
        raise ExternalScorerError("request ids must be unique")
    request = "".join(
        json.dumps({"id": item_id, "text": text}, ensure_ascii=False) + "\n"
        for item_id, text in items
    )
    try:
        proc = subprocess.run(
            argv,
            input=request.encode("utf-8"),
            capture_output=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise ExternalScorerError(
            f"external scorer timed out after {timeout}s: {argv[0]}"
        )
    except OSError as exc:
        raise ExternalScorerError(f"could not launch external scorer: {exc}")

    results: dict[str, tuple[float, int]] = {}
    for lineno, line in enumerate(proc.stdout.decode("utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ExternalScorerError(f"response line {lineno}: not valid JSON ({exc})")
        if not isinstance(row, dict) or "id" not in row:
            raise ExternalScorerError(f"response line {lineno}: missing id")
        rid = row["id"]
        if rid not in expected:
            raise ExternalScorerError(f"response line {lineno}: unknown id {rid!r}")
        if rid in results:
            raise ExternalScorerError(f"response line {lineno}: duplicate id {rid!r}")
        try:
            logprob = float(row["logprob"])
            num_tokens = int(row["num_tokens"])
        except (KeyError, TypeError, ValueError):
            raise ExternalScorerError(
                f"response line {lineno} (id {rid!r}): needs numeric logprob and num_tokens"
            )
        if logprob > 0:
            raise ExternalScorerError(
                f"response line {lineno} (id {rid!r}): positive logprob {logprob}"
            )
        if num_tokens < 1:
            raise ExternalScorerError(
                f"response line {lineno} (id {rid!r}): num_tokens must be >= 1"
            )
        results[rid] = (logprob, num_tokens)

    missing = expected - set(results)
    if missing:
        raise ExternalScorerError(
            f"external scorer exited before answering: missing ids {_listed(missing)}"
        )
    if proc.returncode != 0:
        stderr = proc.stderr.decode("utf-8", "replace").strip()
        raise ExternalScorerError(
            f"external scorer exited with status {proc.returncode}"
            + (f": {stderr[:200]}" if stderr else "")
        )
    return results


class ExternalScorer:
    """Wraps a command so it can stand in wherever a native model scores."""

    def __init__(self, command: str | Sequence[str], timeout: float = 300.0):
        self.command = command
        self.timeout = timeout

    def score_texts(self, items: Sequence[tuple[str, str]]) -> dict[str, tuple[float, int]]:
        return external_score(self.command, items, timeout=self.timeout)
