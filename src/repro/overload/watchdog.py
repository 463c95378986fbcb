"""Shard deadlines for the hung-worker watchdog.

A crashed worker announces itself; a *hung* worker just stops.  The
shard producer's defence is a pair of deadlines on every pool attempt,
derived from one configured hard limit:

* **soft** (``soft_fraction`` of the hard limit) — the watchdog notes
  the breach (``overload.watchdog.soft_breaches``) and keeps waiting; a
  slow shard is not yet a dead shard.
* **hard** — the watchdog cancels the attempt, counts the breach, and
  feeds the shard to the same bounded-retry → serial-fallback ladder
  that salvages crashed shards.  A hung pool attempt therefore never
  blocks the run past its hard deadline.

The deadline is an *execution* knob like the worker count: it can
change which code path produced a record batch, never the bytes in it,
so it is excluded from config fingerprints and dataset cache keys.

This module must not import :mod:`repro.config`.
"""

from __future__ import annotations

from dataclasses import dataclass


class ShardDeadlineExceeded(RuntimeError):
    """A shard attempt overran its hard deadline and was cancelled."""


@dataclass(frozen=True)
class DeadlinePolicy:
    """Soft/hard wall-clock deadlines for one shard attempt."""

    hard_s: float
    soft_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.hard_s <= 0.0:
            raise ValueError("hard_s must be positive")
        if not 0.0 < self.soft_fraction <= 1.0:
            raise ValueError("soft_fraction must be in (0, 1]")

    @property
    def soft_s(self) -> float:
        """Seconds after which a still-running shard is worth a warning."""
        return self.hard_s * self.soft_fraction

    @classmethod
    def from_deadline(cls, hard_s: float | None) -> "DeadlinePolicy | None":
        """The policy for a configured ``shard_deadline_s``, or ``None``."""
        if hard_s is None:
            return None
        return cls(hard_s=float(hard_s))
