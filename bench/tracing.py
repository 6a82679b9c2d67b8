"""Spans and counters around the public functions of each shiftkrr module.

``install`` wraps, from outside the library, the functions a workload
reaches.  Free functions are replaced under every name a shiftkrr module
binds them to (``from .estimators import fit_krr`` gives ``hard_instance``
and ``experiments`` their own ``fit_krr``); methods are replaced on their
classes.  Each span keeps its name, start, end, parent span and op, the
index of the benchmark call that caused it, in memory until ``write``.
A layer's self time is its spans' duration minus the time their child
spans cover.  Computed counts (bytes, multiply-adds) come from the array
shapes seen at the wrappers.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: spans reported as calls, self_s and total_s
TIMED = (
    "shifts.sample_source", "shifts.lr", "shifts.truncate_lr",
    "spectrum.EigenKernel.init", "spectrum.feature_matrix", "spectrum.gram",
    "spectrum.critical_radius",
    "estimators.fit_constrained_erm",
    "estimators.fit_krr.primal", "estimators.fit_krr.dual",
    "estimators.fit_reweighted_krr.primal", "estimators.fit_reweighted_krr.dual",
    "estimators.l2q_error", "estimators.hilbert_norm_sq",
    "bounds.krr_bound", "bounds.lambda_star", "bounds.minimax_lower",
    "hard_instance.HardInstanceState.from_sample",
    "hard_instance.g_primal", "hard_instance.g_dual_tail",
    "experiments.write_csv",
)
#: spans reported by self time only: drivers whose children are spans too
SELF_ONLY = (
    "hard_instance.simulate_failure", "experiments.run_risk_sweep",
    "experiments.figure1", "experiments.figure2", "cli.main",
)
#: counters, with their units
COUNTS = (
    ("shifts.sample_source.bytes", "B"),
    ("spectrum.feature_matrix.bytes", "B"),
    ("spectrum.resolvent_sum.calls", "count"),
    ("estimators.gram_flops", "count"),
    ("estimators.errors", "count"),
    ("seeding.rng_for.calls", "count"),
)
RUN = (  # measured by the traced run itself rather than by a wrapper
    ("trace.coverage_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("blas1.wall_s", "s", "lower"),
    ("blas1.wall_ratio", "ratio", "lower"),
)


def layer_metrics() -> list:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for name in TIMED:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"),
                (f"{name}.total_s", "s", "lower")]
    out += [(f"{name}.self_s", "s", "lower") for name in SELF_ONLY]
    out += [(name, unit, "lower") for name, unit in COUNTS]
    return out + list(RUN)


class Tracer:
    """In-memory spans of one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op]
        self.counts = Counter()
        self.op = -1
        self._stack = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *, split_mode=False, after=None, errors=()):
        """Wrap ``fn`` in a span called ``name``, or ``name.<mode>`` with ``split_mode``.

        ``after(arguments, result)`` adds computed counts; exceptions of the
        ``errors`` types are counted as ``estimators.errors``.
        """
        sig = inspect.signature(fn)
        needs_args = split_mode or after is not None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if needs_args:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            idx = self.begin(f"{name}.{arguments['mode']}" if split_mode else name)
            try:
                result = fn(*args, **kwargs)
            except errors:
                self.counts["estimators.errors"] += 1
                raise
            finally:
                self.end(idx)
            if after is not None:
                after(arguments, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        """calls, self_s and total_s per span name, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for (name, start, end, _parent, _op), inner in zip(self.spans, child_time):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - inner
        return {"layers": dict(out), "counts": dict(self.counts)}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def _replace_everywhere(orig, wrapper) -> None:
    """Rebind every shiftkrr module attribute that refers to ``orig``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "shiftkrr" or mod_name.startswith("shiftkrr."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the layers of an imported shiftkrr package."""
    from shiftkrr import (bounds, cli, estimators, experiments, hard_instance, seeding,
                          shifts, spectrum)

    counts = tracer.counts
    fit_errors = (estimators.FactorizationError, estimators.ProjectionError)

    def add_bytes(key):
        def after(_args, result):
            counts[key] += result.nbytes
        return after

    def add_flops(args, _result):
        # multiply-adds of the Gram matrix: n^2 r for the dual kernel matrix,
        # n r^2 for the primal normal equations and the ERM design
        n, r = len(args["data"]), args["kernel"].rank
        counts["estimators.gram_flops"] += n * n * r if args.get("mode") == "dual" else n * r * r

    fits = [(estimators.fit_constrained_erm, "estimators.fit_constrained_erm", False),
            (estimators.fit_krr, "estimators.fit_krr", True),
            (estimators.fit_reweighted_krr, "estimators.fit_reweighted_krr", True)]
    for fn, name, split_mode in fits:
        _replace_everywhere(fn, tracer.span(name, fn, split_mode=split_mode, after=add_flops,
                                            errors=fit_errors))
    plain = [
        (shifts.truncate_lr, "shifts.truncate_lr"),
        (spectrum.critical_radius, "spectrum.critical_radius"),
        (estimators.l2q_error, "estimators.l2q_error"),
        (estimators.hilbert_norm_sq, "estimators.hilbert_norm_sq"),
        (bounds.krr_bound, "bounds.krr_bound"),
        (bounds.lambda_star, "bounds.lambda_star"),
        (bounds.minimax_lower, "bounds.minimax_lower"),
        (hard_instance.g_primal, "hard_instance.g_primal"),
        (hard_instance.g_dual_tail, "hard_instance.g_dual_tail"),
        (hard_instance.simulate_failure, "hard_instance.simulate_failure"),
        (experiments.run_risk_sweep, "experiments.run_risk_sweep"),
        (experiments.figure1, "experiments.figure1"),
        (experiments.figure2, "experiments.figure2"),
        (experiments.write_csv, "experiments.write_csv"),
        (cli.main, "cli.main"),
    ]
    for fn, name in plain:
        _replace_everywhere(fn, tracer.span(name, fn))
    _replace_everywhere(seeding.rng_for, tracer.counted("seeding.rng_for.calls", seeding.rng_for))

    # from_sample is a classmethod: wrap the underlying function and rebind it
    state_cls = hard_instance.HardInstanceState
    state_cls.from_sample = classmethod(
        tracer.span("hard_instance.HardInstanceState.from_sample", state_cls.from_sample.__func__))

    pair_cls = shifts.ShiftPair
    pair_cls.sample_source = tracer.span("shifts.sample_source", pair_cls.sample_source,
                                         after=add_bytes("shifts.sample_source.bytes"))
    pair_init = pair_cls.__init__

    # lr is a per-instance callable, so wrap it on every new pair
    @functools.wraps(pair_init)
    def init_with_traced_lr(self, *args, **kwargs):
        pair_init(self, *args, **kwargs)
        self.lr = tracer.span("shifts.lr", self.lr)

    pair_cls.__init__ = init_with_traced_lr

    kernel_cls = spectrum.EigenKernel
    kernel_cls.__init__ = tracer.span("spectrum.EigenKernel.init", kernel_cls.__init__)
    kernel_cls.feature_matrix = tracer.span("spectrum.feature_matrix", kernel_cls.feature_matrix,
                                            after=add_bytes("spectrum.feature_matrix.bytes"))
    kernel_cls.gram = tracer.span("spectrum.gram", kernel_cls.gram)
    seq_cls = spectrum.EigenSequence
    seq_cls.resolvent_sum = tracer.counted("spectrum.resolvent_sum.calls", seq_cls.resolvent_sum)


def timed_self_s(summary: dict) -> float:
    """Self time of the TIMED layers of one traced pass; the SELF_ONLY drivers
    are left out, because every span's self time sums to the root span."""
    return sum(agg["self_s"] for name, agg in summary["layers"].items() if name in TIMED)


def layer_values(summary: dict) -> dict:
    """The per-layer metrics of one traced pass, zero for layers it never reached."""
    layers, counts = summary["layers"], summary["counts"]
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    out = {}
    for name in TIMED:
        agg = layers.get(name, empty)
        out[f"{name}.calls"] = agg["calls"]
        out[f"{name}.self_s"] = agg["self_s"]
        out[f"{name}.total_s"] = agg["total_s"]
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = layers.get(name, empty)["self_s"]
    for name, _unit in COUNTS:
        out[name] = counts.get(name, 0)
    return out
