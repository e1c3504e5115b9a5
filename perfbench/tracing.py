"""Per-layer tracing from outside the program.

Public functions are wrapped at every name a caller looks up: the attribute
on the defining module and each ``from ... import`` binding of it in the other
``isotuple`` modules (``verify`` imports ``random_instance`` by name, ``cli``
reaches ``classify.defect_profile`` through the module).  Each wrapper counts
calls and adds inclusive and self time; self time is the call's duration
minus the traced calls it made on the same thread.  Campaign trials run on
pool threads, so a worker's spans have no same-thread parent and are linked
to the op's root span instead.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

#: (module, function, stat key).  Several functions may share one key;
#: ``cli.main`` gives no metric but is the root span of each op.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("verify", "run_campaign", "verify.run_campaign"),
    ("verify", "report_to_json_str", "verify.report_to_json_str"),
    *(("verify", f"check_{tid}", "verify.check") for tid in (
        "pro01", "pro02", "pro03", "pro04", "pro5", "thm05", "cor05", "cor050",
        "thm06", "cor06", "cor061", "cor062", "thm07", "ex00_golden",
    )),
    ("generators", "random_instance", "generators.random_instance"),
    ("classify", "defect_profile", "classify.defect_profile"),
    ("transforms", "defect_scale", "transforms.defect_scale"),
    ("transforms", "triangle", "transforms.triangle"),
    ("transforms", "delta", "transforms.delta"),
    ("transforms", "sigma_apply", "transforms.sigma_apply"),
    ("transforms", "cesaro_estimate", "transforms.cesaro_estimate"),
    ("tuples", "commutes_within", "tuples.commutes"),
    ("tuples", "commutes_cross", "tuples.commutes"),
    ("tuples", "nilpotency_order", "tuples.nilpotency_order"),
    ("matrix_core", "op_norm_estimate", "matrix_core.op_norm_estimate"),
    ("matrix_core", "as_matrix", "matrix_core.as_matrix"),
    ("matrix_core", "matrix_from_json", "matrix_core.matrix_from_json"),
)

#: Per-layer metrics: (name, stat key, field), each reported per op.
METRICS = (
    ("matrix_core.op_norm_estimate.calls", "matrix_core.op_norm_estimate", "calls"),
    ("matrix_core.op_norm_estimate.ms", "matrix_core.op_norm_estimate", "ms"),
    ("transforms.defect_scale.ms", "transforms.defect_scale", "ms"),
    ("generators.random_instance.ms", "generators.random_instance", "ms"),
    ("generators.random_instance.calls", "generators.random_instance", "calls"),
    ("matrix_core.as_matrix.calls", "matrix_core.as_matrix", "calls"),
    ("verify.run_campaign.self_ms", "verify.run_campaign", "self_ms"),
    ("verify.check.ms", "verify.check", "self_ms"),
    ("verify.check.calls", "verify.check", "calls"),
    ("tuples.commutes.ms", "tuples.commutes", "ms"),
    ("tuples.nilpotency_order.ms", "tuples.nilpotency_order", "ms"),
    ("transforms.cesaro_estimate.ms", "transforms.cesaro_estimate", "ms"),
    ("transforms.triangle.ms", "transforms.triangle", "ms"),
    ("transforms.delta.ms", "transforms.delta", "ms"),
    ("transforms.sigma_apply.calls", "transforms.sigma_apply", "calls"),
    ("classify.defect_profile.ms", "classify.defect_profile", "ms"),
    ("matrix_core.matrix_from_json.ms", "matrix_core.matrix_from_json", "ms"),
    ("verify.report_to_json_str.ms", "verify.report_to_json_str", "ms"),
)


class Tracer:
    """Counts and times calls through wrapped functions; keeps spans of chosen ops."""

    def __init__(self):
        self.stats = {key: [0, 0.0, 0.0] for _, _, key in TARGETS}  # calls, incl s, self s
        self.spans: list[tuple] = []
        self.op = -1  # index of the op in flight, set by the caller
        self.record_spans = False
        self._root_span: int | None = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, name: str, fn):
        stat = self.stats[key]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span = next(self._ids)
            if stack:
                parent = stack[-1][0]
            else:
                parent = self._root_span
                if parent is None:
                    self._root_span = span
            frame = [span, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                elif parent is None:
                    self._root_span = None
                with self._lock:
                    stat[0] += 1
                    stat[1] += elapsed
                    stat[2] += elapsed - frame[1]
                    if self.record_spans:
                        self.spans.append(
                            (span, parent, self.op, name, start, end, threading.get_ident())
                        )

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("isotuple.")]
        for mod_name, fn_name, key in TARGETS:
            original = getattr(sys.modules[f"isotuple.{mod_name}"], fn_name)
            wrapper = self._wrap(key, f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def per_op(self, ops: int) -> dict[str, float]:
        """Every per-layer metric, normalized per op."""
        out = {}
        for name, key, what in METRICS:
            calls, incl, self_s = self.stats[key]
            value = {"calls": calls, "ms": incl * 1e3, "self_ms": self_s * 1e3}[what]
            out[name] = value / ops
        return out
