"""Graceful degradation: step down planning knobs on retry.

Every rung of this ladder trades performance for robustness *without
changing any answer* — the property suites guarantee that optimized ≡
unoptimized, and that a cache-bypassed prepare plans the same semantics
from scratch.  That is what makes the ladder safe to walk blindly on
retry: a fault that happened to live in a cached plan or an
optimizer-chosen index path is dodged by the next rung, and a fault that
lives in the data path itself simply fails again and escalates.

The default ladder, in order (each rung keeps the previous rungs'
downgrades):

1. **bypass-plan-cache** — re-plan from scratch, ignoring the shared
   plan cache (a poisoned/stale entry, or a fault during the cached
   plan's index probes, no longer matters; the fresh plan also re-runs
   anchor analysis against the *current* snapshot);
2. **unoptimized-plan** — run the logical plan exactly as written (no
   optimizer rewrites, no index access paths: the full-scan shape
   touches the fewest distinct storage seams).

Rungs are selected by retry index and clamp at the last rung, so a
policy with more attempts than rungs keeps retrying fully degraded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class DegradationStep:
    """Knob overrides one rung applies to a retry attempt.

    ``None`` means "leave the caller's choice alone"; a value overrides
    it for the degraded attempt only.  ``bypass_cache`` routes the
    attempt's planning around the shared plan cache (degraded plans are
    never cached — the next healthy request must not inherit them).
    """

    name: str
    optimize: bool | None = None
    bypass_cache: bool = False


class DegradationLadder:
    """An ordered sequence of :class:`DegradationStep` rungs."""

    def __init__(self, steps: Sequence[DegradationStep]) -> None:
        self.steps = tuple(steps)

    def step_for(self, retry_index: int) -> DegradationStep | None:
        """The rung for the ``retry_index``-th retry (0-based).

        Clamps to the last rung; returns ``None`` for a negative index
        (the first attempt) or an empty ladder.
        """
        if retry_index < 0 or not self.steps:
            return None
        return self.steps[min(retry_index, len(self.steps) - 1)]

    def __len__(self) -> int:
        return len(self.steps)

    def __repr__(self) -> str:
        return f"DegradationLadder({[step.name for step in self.steps]})"


#: The default ladder documented above.
DEFAULT_LADDER = DegradationLadder(
    [
        DegradationStep("bypass-plan-cache", bypass_cache=True),
        DegradationStep("unoptimized-plan", bypass_cache=True, optimize=False),
    ]
)


__all__ = ["DegradationStep", "DegradationLadder", "DEFAULT_LADDER"]
