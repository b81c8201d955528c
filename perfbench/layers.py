"""Per-layer tracing of ramex from outside the program.

The tracer wraps public functions of ``src/ramex`` and rebinds every
module-level name that refers to them (``ramanujan_walk.node_polynomial``,
``exact_linalg.charpoly`` as called by ``trivariate_detpoly``,
``cli.walk``, ...), so callers that imported a function by name reach the
wrapper too.  ``restore`` puts the originals back.  Nothing under ``src/``
changes.

Spans are kept in memory as ``[name, start, end, parent]`` and turned into
per-layer metrics by ``layer_metrics``.  A span's self time is its duration
minus the time its direct children cover.  Worker processes started by the
walk inherit the wrappers, but their spans stay in the worker and are lost:
with ``--jobs`` > 1 only parent-side spans are reported.

A target that a later version of ramex no longer has is skipped, and its
metrics read 0.
"""

from __future__ import annotations

import resource
import time
from collections import Counter

SPAN = "span"
COUNT = "count"

# (module, function, how it is recorded).  Hot, tiny functions are only
# counted: a span around each call would cost more than the call.
TARGETS = (
    ("ramex.cli", "main", SPAN),
    ("ramex.ramanujan_walk", "walk", SPAN),
    ("ramex.ramanujan_walk", "certify", SPAN),
    ("ramex.ramanujan_walk", "max_root_leq_sqrt", SPAN),
    ("ramex.matching_family", "leaf_graph", SPAN),
    ("ramex.matching_family", "children", COUNT),
    ("ramex.matching_family", "half_adjacency", SPAN),
    ("ramex.expectation_engine", "node_polynomial", SPAN),
    ("ramex.expectation_engine", "add_random_matching", SPAN),
    ("ramex.expectation_engine", "g_weight", COUNT),
    ("ramex.exact_linalg", "trivariate_detpoly", SPAN),
    ("ramex.exact_linalg", "householder_block_reduce", SPAN),
    ("ramex.exact_linalg", "charpoly", SPAN),
    ("ramex.exact_algebra", "poly_shift_by_sqrt", SPAN),
    ("ramex.exact_algebra", "poly_div_exact", SPAN),
    ("ramex.exact_algebra", "quad_sign", COUNT),
)

# Counts that must repeat exactly between two traced runs of one workload.
EXACT_COUNTS = (
    "walk.node_evals",
    "walk.stages",
    "charpoly.grid_calls",
    "charpoly.quad_calls",
    "g_weight.calls",
    "node_poly.max_coeff_bits",
    "add_random_matching.calls",
    "max_root_leq_sqrt.calls",
    "poly_shift_by_sqrt.calls",
    "poly_div_exact.calls",
    "quad_sign.calls",
    "children.calls",
)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _coeff_bits(poly) -> int:
    bits = 0
    for c in getattr(poly, "coeffs", ()):
        num = getattr(c, "numerator", c)
        den = getattr(c, "denominator", 1)
        if isinstance(num, int) and isinstance(den, int):
            bits = max(bits, num.bit_length(), den.bit_length())
    return bits


def _has_quad_entries(matrix) -> bool:
    # By type name, so the tracer still loads once QuadNum is gone.
    return any(
        type(x).__name__ == "QuadNum" for row in getattr(matrix, "entries", ()) for x in row
    )


class Tracer:
    """Spans and counters of one traced stretch of work."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (module, attribute, original)
        self.missing: list[str] = []  # targets absent from the traced ramex

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _span_wrapper(self, name: str, fn, before=None, after=None):
        def wrapped(*args, **kwargs):
            if before is not None:
                before(args)
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if after is not None:
                after(result)
            return result

        return wrapped

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        key = f"{name}.calls"

        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _wrap(self, name: str, fn, kind: str):
        if kind == COUNT:
            return self._count_wrapper(name, fn)
        if name == "charpoly":
            return self._span_wrapper(name, fn, before=self._on_charpoly)
        if name == "node_polynomial":
            return self._span_wrapper(name, fn, after=self._on_node_poly)
        if name == "walk":
            return self._walk_wrapper(fn)
        if name == "main":
            return self._span_wrapper("cli", fn)
        return self._span_wrapper(name, fn)

    def _on_charpoly(self, args) -> None:
        if args and _has_quad_entries(args[0]):
            self.counts["charpoly.quad_calls"] += 1

    def _on_node_poly(self, result) -> None:
        bits = _coeff_bits(getattr(result, "poly", result))
        if bits > self.counts["node_poly.max_coeff_bits"]:
            self.counts["node_poly.max_coeff_bits"] = bits

    def _walk_wrapper(self, fn):
        def wrapped(*args, **kwargs):
            cpu_before = _children_cpu_s()
            idx = self._enter("walk")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
                # Pool workers are joined inside walk, so their CPU time
                # has reached RUSAGE_CHILDREN by now.
                self.counts["walk.worker_cpu_s"] += _children_cpu_s() - cpu_before
            self.counts["walk.stages"] += len(getattr(result, "stages", ()))
            return result

        return wrapped

    def _pool_class(self, base):
        tracer = self

        class TimedPool(base):
            """Times the parent's wait for worker results."""

            def map(self, fn, *iterables, **kwargs):
                idx = tracer._enter("walk.pool_wait")
                try:
                    return list(super().map(fn, *iterables, **kwargs))
                finally:
                    tracer._exit(idx)

        return TimedPool

    # -- installing --------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Rebind every alias of each target in the loaded ramex modules.

        ``modules`` maps module names to module objects.  Targets that
        were not found are listed in ``self.missing``.
        """
        self.missing = []
        replacements = {}  # id(original) -> (original, wrapper)
        for mod_name, fn_name, kind in TARGETS:
            original = getattr(modules.get(mod_name), fn_name, None)
            if original is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            replacements[id(original)] = (original, self._wrap(fn_name, original, kind))
        pool_base = getattr(modules.get("ramex.ramanujan_walk"), "ProcessPoolExecutor", None)
        if pool_base is not None:
            replacements[id(pool_base)] = (pool_base, self._pool_class(pool_base))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics per operation, from the tracer's spans and counts."""
    spans = tracer.spans
    total: Counter = Counter()
    own: Counter = Counter()  # self time
    calls: Counter = Counter()
    charpoly_by_parent: Counter = Counter()
    charpoly_calls_by_parent: Counter = Counter()
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    for idx, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        total[name] += duration
        own[name] += duration - covered[idx]
        calls[name] += 1
        if name == "charpoly":
            parent_name = spans[parent][0] if parent >= 0 else None
            charpoly_by_parent[parent_name] += duration
            charpoly_calls_by_parent[parent_name] += 1
    counts = tracer.counts
    values = {
        "walk.node_evals": calls["node_polynomial"],
        "walk.stages": counts["walk.stages"],
        "walk.self_s": own["walk"],
        "walk.pool_wait_s": total["walk.pool_wait"],
        "walk.worker_cpu_s": counts["walk.worker_cpu_s"],
        "max_root_leq_sqrt.calls": calls["max_root_leq_sqrt"],
        "max_root_leq_sqrt.s": total["max_root_leq_sqrt"],
        "certify.s": total["certify"],
        "node_polynomial.s": total["node_polynomial"],
        "node_polynomial.self_s": own["node_polynomial"],
        "add_random_matching.calls": calls["add_random_matching"],
        "add_random_matching.s": total["add_random_matching"],
        "g_weight.calls": counts["g_weight.calls"],
        "trivariate_detpoly.s": total["trivariate_detpoly"],
        "trivariate_detpoly.self_s": own["trivariate_detpoly"],
        "charpoly.grid_s": charpoly_by_parent["trivariate_detpoly"],
        "charpoly.grid_calls": charpoly_calls_by_parent["trivariate_detpoly"],
        "charpoly.householder_s": charpoly_by_parent["householder_block_reduce"],
        "householder_block_reduce.self_s": own["householder_block_reduce"],
        "charpoly.certify_s": charpoly_by_parent["certify"],
        "charpoly.quad_calls": counts["charpoly.quad_calls"],
        "poly_shift_by_sqrt.calls": calls["poly_shift_by_sqrt"],
        "poly_shift_by_sqrt.s": total["poly_shift_by_sqrt"],
        "poly_div_exact.calls": calls["poly_div_exact"],
        "poly_div_exact.s": total["poly_div_exact"],
        "quad_sign.calls": counts["quad_sign.calls"],
        "children.calls": counts["children.calls"],
        "half_adjacency.s": total["half_adjacency"],
        "cli.io_s": own["cli"],
    }
    out = {name: value / ops for name, value in values.items()}
    # A maximum, not a sum: it does not scale with the number of operations.
    out["node_poly.max_coeff_bits"] = counts["node_poly.max_coeff_bits"]
    return out
