"""Run configuration shared by the verifier and the CLI."""

from __future__ import annotations

from dataclasses import dataclass

# The oracle's path search recurses once per letter, so its bound must stay
# well inside Python's default recursion limit of 1000.
MAX_ORACLE_BOUND = 500


@dataclass(frozen=True)
class Config:
    """Set only by arguments: ``--max-rank`` and ``--oracle-bound`` on the CLI."""

    max_rank: int = 24       # largest Whitehead scan rank; clause 1 at n needs 2n
    oracle_bound: int = 8    # conjugacy cross-check length bound L, 1..MAX_ORACLE_BOUND

    def __post_init__(self):
        if self.max_rank < 1 or self.oracle_bound < 1:
            raise ValueError("bounds must be >= 1")
        if self.oracle_bound > MAX_ORACLE_BOUND:
            raise ValueError(f"oracle bound must be <= {MAX_ORACLE_BOUND}")
