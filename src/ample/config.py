"""Run configuration shared by the verifier and the CLI."""

from __future__ import annotations

from dataclasses import dataclass

# The oracle's path search recurses once per letter, so its bound must stay
# well inside Python's default recursion limit of 1000.
MAX_ORACLE_BOUND = 500


@dataclass(frozen=True)
class Config:
    """Set only by arguments: ``--oracle-bound`` on the CLI.  The verifier
    has no size knob; the catalog letter cap alone bounds n."""

    oracle_bound: int = 8    # conjugacy cross-check length bound L, 1..MAX_ORACLE_BOUND

    def __post_init__(self):
        if not 1 <= self.oracle_bound <= MAX_ORACLE_BOUND:
            raise ValueError(f"oracle bound must lie in 1..{MAX_ORACLE_BOUND}")
