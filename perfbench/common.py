"""Shared pieces of the workloads: the op record, checks and digests."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable


class CheckFailed(Exception):
    """An op returned, but its answer disagrees with the benchmark's oracle."""


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    """One user query: `run` calls invsemi, `check` validates the answer.

    `check` returns the op's canonical report (JSON-able); its digest is
    compared across rounds and runs. `known_defect` names the exception an
    op raises today because of a documented bug; such a failure still counts
    as failed, but does not make the run incorrect.
    """

    id: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Any]
    known_defect: str | None = None


def digest(report) -> str:
    text = json.dumps(report, sort_keys=True, ensure_ascii=True, default=str)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def jitter(rng, size, share):
    """Seeded size within +-share of the nominal size."""
    return max(1, round(size * (1 + rng.uniform(-share, share))))
