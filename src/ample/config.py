"""Run configuration shared by the verifier and the CLI."""

from __future__ import annotations

import os
from dataclasses import dataclass

# The oracle's path search recurses once per letter, so its bound must stay
# well inside Python's default recursion limit of 1000.
MAX_ORACLE_BOUND = 500


@dataclass(frozen=True)
class Config:
    max_rank: int = 24       # largest Whitehead scan rank (clause 1 needs rank 2n)
    oracle_bound: int = 8    # conjugacy cross-check length bound L

    def __post_init__(self):
        if self.max_rank < 1 or self.oracle_bound < 1:
            raise ValueError("bounds must be >= 1")
        if self.oracle_bound > MAX_ORACLE_BOUND:
            raise ValueError(f"oracle bound must be <= {MAX_ORACLE_BOUND}")

    @staticmethod
    def from_env(**overrides) -> "Config":
        """Environment variables AMPLE_MAX_RANK / AMPLE_ORACLE_BOUND seed the
        defaults; explicit keyword overrides (CLI flags) win."""
        values = {}
        env_rank = os.environ.get("AMPLE_MAX_RANK")
        if env_rank is not None:
            values["max_rank"] = int(env_rank)
        env_bound = os.environ.get("AMPLE_ORACLE_BOUND")
        if env_bound is not None:
            values["oracle_bound"] = int(env_bound)
        values.update({k: v for k, v in overrides.items() if v is not None})
        return Config(**values)
