"""Benchmark of the ``ample`` toolkit and verifier.

Run from the repository root:

    python3 perfbench/run.py --workload toolkit-mix --seed 1 --seconds 10
    python3 perfbench/run.py --trace 1      # every workload, plus per-layer table

Workloads (see BENCHMARK.json for why each exists):
  verify-ladder  ``ample verify-ample --n N --json`` in-process, N = 1..4
  acl-ladder     check_clause3 and check_clause2/4(i), i = 1..7, at L = 10
  toolkit-mix    ~2000 seeded independent queries with planted answers

One process, one caller, closed loop: each operation starts when the
previous one returned.  A run repeats whole passes over the workload's
operations until ``--seconds`` have elapsed (at least two passes) and
reports medians.  Times are in reference seconds, which cancel the drift
of a shared host's speed (see clock.py).  Every output is checked after its
pass, outside the timed region, against answers the benchmark knows
without trusting the library, and against the first pass byte for byte.

End-to-end metrics: setup_s (median over fresh processes of importing
``ample`` and building the inputs), wall_s (median pass), query_p50_ms and
query_p99_ms (quantiles over the workload's operations of each one's
median time; a ladder's operations are its steps), fail_frac (failed over
attempted operations; it reads FAIL_FRAC_FLOOR when none failed, so that
it is never 0) and peak_rss_mb.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` half of the time is untraced passes and half traced
passes, and it reports the per-layer metrics.  A human-readable table
with units and sample counts, and the environment, precede it.
"""

from __future__ import annotations

import os
import sys
import time

SRC = os.path.join("src", "ample", "__init__.py")
WORKLOADS = ("verify-ladder", "acl-ladder", "toolkit-mix")


def _load_library() -> None:
    """Put the checkout's ``src`` first on the path and import ``ample``
    from it; refuse to fall back to any other copy."""
    if not os.path.isfile(SRC):
        raise SystemExit(f"perfbench: {SRC} not found; run from the repository root")
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import ample
    if not os.path.abspath(ample.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported ample from {ample.__file__}, not {src}")


def _build(workload: str, seed: int):
    if workload == "toolkit-mix":
        from mix import build_toolkit_mix
        return build_toolkit_mix(seed)
    from ladders import build_acl_ladder, build_verify_ladder
    return build_verify_ladder() if workload == "verify-ladder" else build_acl_ladder()


def _setup_probe(workload: str, seed: int) -> int:
    """Child process: time importing ``ample`` and building the inputs."""
    start = time.perf_counter()
    _load_library()
    ops = _build(workload, seed)
    elapsed = time.perf_counter() - start
    import json
    from env import inputs_digest
    print(json.dumps({"setup_s": elapsed, "inputs_digest": inputs_digest(ops)}))
    return 0


if __name__ == "__main__" and sys.argv[1:2] == ["--setup-probe"]:
    # Keep the probe's own imports out of the timed region: a fresh process
    # pays for everything ``ample`` imports.
    sys.exit(_setup_probe(sys.argv[2], int(sys.argv[3])))


import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

SETUP_PROBES = 7
# One failure in any run reads at least 1/attempted, far above this.
FAIL_FRAC_FLOOR = 1e-9

# Traced functions each workload calls today; a traced run in which one of
# them records no call has missed a binding and fails.
EXPECTED_CALLS = {
    "verify-ladder": (
        "cli.main", "verifier.verify_ample", "verifier.check_clause1",
        "verifier.check_clause2", "verifier.check_clause3",
        "verifier.check_clause4", "whitehead.minimize", "whitehead.is_basis",
        "stallings.build_core", "stallings.contains", "stallings.intersect",
        "stallings.basis", "stallings.cyclic_core",
        "stallings.conjugacy_intersection", "stallings.immerses_into",
        "stallings.is_conjugate_into", "stallings.enumerate_cyclic_classes",
        "jsj.acl_from_catalog", "words.multiply", "words.least_rotation"),
    "acl-ladder": (
        "verifier.check_clause2", "verifier.check_clause3",
        "verifier.check_clause4", "whitehead.is_basis",
        "stallings.build_core", "stallings.contains", "stallings.intersect",
        "stallings.basis", "stallings.cyclic_core",
        "stallings.conjugacy_intersection", "stallings.immerses_into",
        "stallings.is_conjugate_into", "stallings.enumerate_cyclic_classes",
        "jsj.acl_from_catalog", "words.multiply", "words.least_rotation"),
    "toolkit-mix": (
        "words.parse_word", "words.multiply", "words.is_conjugate",
        "words.least_rotation", "stallings.build_core", "stallings.contains", "stallings.intersect",
        "stallings.basis", "whitehead.minimize", "whitehead.is_primitive",
        "whitehead.is_free_factor_tuple", "imaginaries.e1_conjugation",
        "imaginaries.e2_left_coset", "imaginaries.e3_right_coset",
        "imaginaries.e4_double_coset", "jsj.acl_from_catalog", "jsj.validate"),
}


class Run:
    """Outcomes of the passes of one run."""

    def __init__(self, ops, clock):
        self.ops = ops
        self.clock = clock
        self.pass_s: list[float] = []      # reference seconds
        self.raw_pass_s: list[float] = []  # seconds as measured
        self.op_ms: list[list[float]] = [[] for _ in ops]  # per op, reference ms
        self.first_prints: list = []
        self.attempted = 0
        self.failures: list[tuple[str, str, bool]] = []  # (op id, reason, known)
        self.known_per_pass: list[int] = []

    def run_pass(self, tracer=None) -> None:
        """Time one pass, tracing it if a tracer is given, then check it.
        The pass time is the sum of its operations' times."""
        perf = time.perf_counter
        clock = self.clock
        outputs = []
        raw = []  # (start, end, seconds without the clock's samples)
        if tracer is not None:
            tracer.reset()
            tracer.active = True
        try:
            with clock.sampling():
                for op in self.ops:
                    stolen = clock.stolen
                    start = perf()
                    try:
                        out = op.run()
                    except Exception as exc:  # checked and reported as a failure
                        out = exc
                    end = perf()
                    raw.append((start, end, end - start - (clock.stolen - stolen)))
                    outputs.append(out)
        finally:
            if tracer is not None:
                tracer.active = False
        scaled = [seconds * clock.scale(start, end) for start, end, seconds in raw]
        for times, seconds in zip(self.op_ms, scaled):
            times.append(seconds * 1000.0)
        self.pass_s.append(sum(scaled))
        self.raw_pass_s.append(sum(seconds for _, _, seconds in raw))
        self._check(outputs)

    def _check(self, outputs) -> None:
        first = not self.first_prints
        known = 0
        for index, (op, out) in enumerate(zip(self.ops, outputs)):
            self.attempted += 1
            if isinstance(out, Exception):
                reason = f"raised {type(out).__name__}: {out}"
            else:
                reason = op.check(out)
            if reason is None:
                printed = op.fingerprint(out)
                if first:
                    self.first_prints.append(printed)
                elif printed != self.first_prints[index]:
                    reason = "output differs from the first pass"
            elif first:
                self.first_prints.append(None)
            if reason is not None:
                is_known = (op.known_defect is not None
                            and not isinstance(out, Exception)
                            and out is False)
                known += is_known
                self.failures.append((op.id, reason, is_known))
        self.known_per_pass.append(known)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def unexpected(self) -> list[tuple[str, str, bool]]:
        return [f for f in self.failures if not f[2]]


def _percentile(samples: list[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def _setup_samples(workload: str, seed: int, digest: str, clock) -> list[float]:
    """Set-up times of fresh processes, in reference seconds."""
    script = os.path.abspath(__file__)
    samples = []
    for _ in range(SETUP_PROBES):
        for _ in range(3):
            clock.sample()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, script, "--setup-probe", workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: setup probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if probe["inputs_digest"] != digest:
            raise SystemExit("perfbench: setup probe built different inputs")
        end = time.perf_counter()
        for _ in range(3):
            clock.sample()
        samples.append(probe["setup_s"] * clock.scale(start, end))
    return samples


def _passes(run: Run, seconds: float, minimum: int) -> None:
    start = time.perf_counter()
    while len(run.pass_s) < minimum or time.perf_counter() - start < seconds:
        run.run_pass()


def _table(rows) -> None:
    for name, value, unit, count in rows:
        print(f"  {name:<56} {value:>14.6g} {unit:<6} n={count}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from clock import REFERENCE_S, SpeedClock
    from env import environment, inputs_digest

    ops = _build(workload, seed)
    digest = inputs_digest(ops)
    clock = SpeedClock()
    setup = _setup_samples(workload, seed, digest, clock)
    run = Run(ops, clock)
    print(f"[{workload}] seed={seed} ops/pass={len(ops)} trace={int(trace)}")
    print("env " + json.dumps(environment(workload, seed, digest), sort_keys=True))

    if not trace:
        _passes(run, seconds, minimum=2)
    else:
        from spans import Tracer
        _passes(run, seconds / 2, minimum=1)
        untraced_s = list(run.pass_s)
        tracer = Tracer(clock)
        tracer.install()
        per_pass: list[dict] = []
        shares: list[dict] = []  # raw self time per module / raw pass time
        traced_start = time.perf_counter()
        try:
            while not per_pass or time.perf_counter() - traced_start < seconds / 2:
                run.run_pass(tracer)
                layer = tracer.pass_metrics()
                layer["imaginaries.e4_double_coset.planted_misses"] = run.known_per_pass[-1]
                per_pass.append(layer)
                raw_pass = run.raw_pass_s[-1]
                share = {m: t / raw_pass for m, t in tracer.module_self_s().items()}
                share["whitehead.minimize (inclusive)"] = (
                    tracer.stats["whitehead.minimize"][2] / raw_pass)
                shares.append(share)
                missing = [name for name in EXPECTED_CALLS[workload]
                           if name not in tracer.called()]
                if missing:
                    raise SystemExit(
                        f"perfbench: traced {workload} recorded no call to "
                        f"{', '.join(missing)}; a binding was not wrapped")
        finally:
            tracer.uninstall()
        traced_s = run.pass_s[len(untraced_s):]

    for op_id, reason, _ in run.unexpected[:20]:
        print(f"  FAILED {op_id}: {reason}")
    known_ids = sorted({f[0] for f in run.failures if f[2]})
    if known_ids:
        print(f"  e4 planted misses (standing defect: e4_exponent_bound divides by "
              f"the full length of a root that is not cyclically reduced): "
              f"{len(known_ids)} queries: {' '.join(known_ids)}")

    if not trace:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # A query's latency is its median over the passes; a ladder's
        # queries are its steps.
        query_ms = [statistics.median(times) for times in run.op_ms]
        rows = [
            ("setup_s", statistics.median(setup), "s", len(setup)),
            ("wall_s", statistics.median(run.pass_s), "s", len(run.pass_s)),
            ("query_p50_ms", _percentile(query_ms, 50), "ms", len(query_ms)),
            ("query_p99_ms", _percentile(query_ms, 99), "ms", len(query_ms)),
            ("fail_frac", max(run.failed / run.attempted, FAIL_FRAC_FLOOR),
             "ratio", run.attempted),
            ("peak_rss_mb", rss_mb, "MB", 1),
        ]
    else:
        rows = []
        for name in per_pass[0]:
            values = [p[name] for p in per_pass]
            unit = ("s" if name.endswith("_s") else
                    "ratio" if name.endswith(("_frac", "_per_scanned")) else "count")
            rows.append((name, statistics.fmean(values), unit, len(values)))
        rows.append(("trace.overhead_s",
                     statistics.median(traced_s) - statistics.median(untraced_s),
                     "s", len(traced_s)))
        mean_share = {m: statistics.fmean(p[m] for p in shares) for m in shares[0]}
        print("  share of the traced pass: " + ", ".join(
            f"{m} {v:.1%}" for m, v in sorted(mean_share.items(), key=lambda kv: -kv[1])))
    print(f"  (speed scale {statistics.median(clock.samples) / REFERENCE_S:.3f}: "
          f"raw pass median {statistics.median(run.raw_pass_s):.6g} s)")
    _table(rows)
    return {
        "correct": not run.unexpected,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in rows},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog="Without --workload every workload runs; with --trace 1 each "
               "then also gets a traced run and its per-layer table.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_library()
    if args.workload:
        runs = [(args.workload, bool(args.trace))]
    else:
        modes = (False, True) if args.trace else (False,)
        runs = [(name, traced) for name in WORKLOADS for traced in modes]
    ok = True
    for name, traced in runs:
        result = run_workload(name, args.seed, args.seconds, traced)
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
