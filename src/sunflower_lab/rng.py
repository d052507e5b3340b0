"""Seeded random streams, and the node :class:`Budget` every search spends from.

String seeds make ``random.Random`` hash the seed with SHA-512, which is
reproducible across processes and platforms (unlike ``hash()`` of a tuple).
Every seeded operation in the package derives its stream through
:func:`seeded_rng` so that sub-streams (per chunk, per disk, ...) are
independent of worker scheduling.
"""

from __future__ import annotations

import random

from .errors import BudgetExceededError


def seeded_rng(*parts: object) -> random.Random:
    """Return a ``random.Random`` seeded from the joined string of ``parts``."""
    return random.Random("/".join(str(p) for p in parts))


class Budget:
    """A node counter; ``spend`` raises once ``used`` passes a ``limit`` other than ``None``."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None):
        self.limit = limit
        self.used = 0

    def spend(self) -> None:
        self.used += 1
        if self.limit is not None and self.used > self.limit:
            raise BudgetExceededError(
                f"search budget exhausted ({self.used} > {self.limit} nodes)"
            )
