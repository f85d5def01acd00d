"""Per-layer tracing for the benchmark: spans around calls into the public
functions of each ``ample`` module, aggregated in memory.

Every ``ample`` module binds the functions it uses under its own name
(``from .stallings import cyclic_core``, ``basis as core_basis``, the
re-exports in ``ample/__init__``), so a wrapper installed in one namespace
is not seen by callers in another.  ``Tracer.install`` therefore replaces
the function in every ``ample`` namespace that binds it, and ``check_bindings``
refuses to run if any binding of an original survived.

Spans are aggregated per function as (calls, self seconds, inclusive
seconds); self time is the span minus the time of the traced spans it
caused.  Work counters that need the call's inputs or outputs keep
references during the pass and are computed after it, outside every span.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from ample import cli, imaginaries, jsj, stallings, verifier, whitehead, words

# Public functions timed as spans, by module.  Names are reported as
# "<module>.<function>".
SPAN_FUNCTIONS = {
    "words": ("parse_word", "multiply", "is_conjugate", "least_rotation"),
    "stallings": ("build_core", "intersect", "contains", "basis", "cyclic_core",
                  "conjugacy_intersection", "immerses_into",
                  "is_conjugate_into", "enumerate_cyclic_classes"),
    "whitehead": ("minimize", "is_primitive", "is_free_factor_tuple",
                  "is_basis"),
    "imaginaries": ("e1_conjugation", "e2_left_coset", "e3_right_coset",
                    "e4_double_coset"),
    "jsj": ("acl_from_catalog", "validate"),
    "verifier": ("check_clause1", "check_clause2", "check_clause3",
                 "check_clause4", "verify_ample"),
    "cli": ("main",),
}
MODULES = {"words": words, "stallings": stallings, "whitehead": whitehead,
           "imaginaries": imaginaries, "jsj": jsj, "verifier": verifier,
           "cli": cli}

# Spans that feed a derived metric but are not reported on their own.
UNREPORTED = {"verifier.verify_ample", "cli.main"}


def _ample_namespaces():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "ample" or name.startswith("ample."))]


class Tracer:
    """Span aggregator; inactive wrappers call straight through."""

    def __init__(self, clock):
        self.clock = clock  # its samples run inside spans and are excluded
        self.active = False
        self._stack: list[list[float]] = []
        self.stats: dict[str, list] = {}
        self.counters: Counter = Counter()
        self.cyclic_core_inputs: list = []
        self.product_pairs: list = []
        self._e4_bounds: list[int] = []
        self._originals: dict[int, object] = {}
        self._by_name: dict[str, object] = {}
        self._installed: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded; called at the start of each pass."""
        self.stats = {f"{m}.{f}": [0, 0.0, 0.0]
                      for m, fns in SPAN_FUNCTIONS.items() for f in fns}
        self.counters = Counter()
        self.cyclic_core_inputs = []
        self.product_pairs = []
        self._e4_bounds = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, post=None):
        stack = self._stack
        perf = time.perf_counter
        clock = self.clock

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            stolen = clock.stolen
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start - (clock.stolen - stolen)
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat = self.stats[name]
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                stat[2] += elapsed
            if post is not None:
                post(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _counting_autos(self, fn):
        """Counts rounds (calls) and automorphisms yielded by the Whitehead
        enumerator that ``minimize`` scans."""

        def traced(*args, **kwargs):
            if not self.active:
                yield from fn(*args, **kwargs)
                return
            self.counters["whitehead.minimize.rounds"] += 1
            scanned = 0
            try:
                for aut in fn(*args, **kwargs):
                    scanned += 1
                    yield aut
            finally:
                self.counters["whitehead.minimize.autos_scanned"] += scanned

        traced.__wrapped__ = fn
        return traced

    def _recording_bound(self, fn):
        def traced(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                self._e4_bounds.append(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- post hooks (cheap: record references, count sizes) ----------------

    def _post_build_core(self, args, kwargs, result):
        gens = args[0] if args else kwargs["generators"]
        self.counters["stallings.build_core.letters_in"] += sum(len(w) for w in gens)

    def _post_intersect(self, args, kwargs, result):
        self.counters["stallings.intersect.vertices_out"] += result.num_vertices

    def _post_classes(self, args, kwargs, result):
        self.counters["stallings.enumerate_cyclic_classes.classes_out"] += len(result)

    def _post_cyclic_core(self, args, kwargs, result):
        self.cyclic_core_inputs.append(args[0] if args else kwargs["g"])

    def _post_conjugacy_intersection(self, args, kwargs, result):
        self.product_pairs.append(args[:2])

    def _post_minimize(self, args, kwargs, result):
        self.counters["whitehead.minimize.applied"] += len(result.automorphisms_applied)

    def _post_e4(self, args, kwargs, result):
        if len(self._e4_bounds) == 2:
            bound_k, bound_l = self._e4_bounds
            self.counters["imaginaries.e4_double_coset.pairs_bound"] += (
                (2 * bound_k + 1) * (2 * bound_l + 1))
        self._e4_bounds = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every ``ample`` namespace binding it."""
        posts = {
            "stallings.build_core": self._post_build_core,
            "stallings.intersect": self._post_intersect,
            "stallings.enumerate_cyclic_classes": self._post_classes,
            "stallings.cyclic_core": self._post_cyclic_core,
            "stallings.conjugacy_intersection": self._post_conjugacy_intersection,
            "whitehead.minimize": self._post_minimize,
            "imaginaries.e4_double_coset": self._post_e4,
        }
        replacements = {}
        for mod_name, fns in SPAN_FUNCTIONS.items():
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                original = getattr(MODULES[mod_name], fn_name)
                self._by_name[name] = original
                replacements[id(original)] = (
                    original, self._span(name, original, posts.get(name)))
        for original, wrap in (
                (whitehead.enumerate_whitehead_autos, self._counting_autos),
                (imaginaries.e4_exponent_bound, self._recording_bound)):
            replacements[id(original)] = (original, wrap(original))
        for module in _ample_namespaces():
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._installed.append((module, attr, value))
        self._originals = {key: original for key, (original, _) in replacements.items()}
        self.check_bindings()

    def check_bindings(self) -> None:
        """Raise if any ``ample`` namespace still binds an unwrapped original."""
        missed = [f"{module.__name__}.{attr}"
                  for module in _ample_namespaces()
                  for attr, value in vars(module).items()
                  if self._originals.get(id(value)) is value]
        if missed:
            raise RuntimeError("trace wrappers missed bindings: " + ", ".join(missed))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed = []

    # -- per-pass metrics ----------------------------------------------------

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer figures of the pass just traced (tracer inactive)."""
        out: dict[str, float] = {}
        for name, (calls, self_s, incl_s) in self.stats.items():
            if name in UNREPORTED:
                continue
            out[f"{name}.calls"] = calls
            if name.startswith("verifier."):
                out[f"{name}.total_s"] = incl_s
            else:
                out[f"{name}.self_s"] = self_s
        counters = self.counters
        for key in ("stallings.build_core.letters_in",
                    "stallings.intersect.vertices_out",
                    "stallings.enumerate_cyclic_classes.classes_out",
                    "whitehead.minimize.rounds",
                    "whitehead.minimize.autos_scanned",
                    "imaginaries.e4_double_coset.pairs_bound"):
            out[key] = counters[key]
        scanned = counters["whitehead.minimize.autos_scanned"]
        out["whitehead.minimize.reductions_per_scanned"] = (
            counters["whitehead.minimize.applied"] / scanned if scanned else 0.0)
        calls = len(self.cyclic_core_inputs)
        repeats = calls - len(set(self.cyclic_core_inputs))
        out["stallings.cyclic_core.repeat_frac"] = repeats / calls if calls else 0.0
        core = self._by_name["stallings.cyclic_core"]
        out["stallings.conjugacy_intersection.product_vertices"] = sum(
            core(g1).num_vertices * core(g2).num_vertices
            for g1, g2 in self.product_pairs)
        main_s = self.stats["cli.main"][2]
        out["cli.main.overhead_s"] = (
            main_s - self.stats["verifier.verify_ample"][2] if main_s else 0.0)
        return out

    def module_self_s(self) -> dict[str, float]:
        shares: Counter = Counter()
        for name, (_, self_s, _) in self.stats.items():
            shares[name.split(".")[0]] += self_s
        return dict(shares)

    def called(self) -> set[str]:
        return {name for name, stat in self.stats.items() if stat[0]}

