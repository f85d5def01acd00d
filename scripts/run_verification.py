#!/usr/bin/env python3
"""Run the ampleness verifier for a range of n and collect JSON reports.

Example:
    python scripts/run_verification.py --max-n 3 --out-dir reports/
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from ample.config import Config
from ample.jsj import cap_witness_entries
from ample.verifier import verify_ample


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=3)
    parser.add_argument("--oracle-bound", type=int, default=Config.oracle_bound)
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="write report-n<k>.json files here")
    args = parser.parse_args()

    try:
        if args.max_n < 1:
            raise ValueError("--max-n must be >= 1")
        if args.max_n > 1:
            cap_witness_entries(args.max_n - 1)
        config = Config(oracle_bound=args.oracle_bound)
        if args.out_dir:
            args.out_dir.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as exc:
        print(f"run_verification: {exc}", file=sys.stderr)
        return 2

    all_pass = True
    for n in range(1, args.max_n + 1):
        start = time.perf_counter()
        report = verify_ample(n, config)
        elapsed = time.perf_counter() - start
        verdict = "pass" if report.overall else "fail"
        print(f"n={n}: {verdict} in {elapsed:.2f}s")
        all_pass = all_pass and report.overall
        if args.out_dir:
            path = args.out_dir / f"report-n{n}.json"
            try:
                path.write_text(report.to_json() + "\n")
            except OSError as exc:
                print(f"run_verification: {exc}", file=sys.stderr)
                return 2
            print(f"  wrote {path}")
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
