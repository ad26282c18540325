"""Outside-in tracer: times adbcr's layers by wrapping their module attributes.

Nothing under src/ knows about it. install() replaces each traced function at
every place an adbcr module binds it (the defining module and every
``from ... import`` site), plus a few class methods, with a wrapper that
records a span. uninstall() puts the originals back. Wrappers return exactly
what the wrapped function returned, so traced runs stay bit-identical.

Spans are kept per thread (the threaded search runs its configs on worker
threads) as aggregates: calls, total seconds and self seconds, where self
time is the span minus the time covered by spans nested inside it on the
same thread. Counters (rows parsed, bytes written, sweeps, tape nodes) sit
beside the spans in the same per-thread tables.
"""
from __future__ import annotations

import os
import sys
import threading
import time
import tracemalloc
import weakref
from dataclasses import dataclass, field

AUTODIFF_OPS = ("matmul", "add", "sub", "scale", "elu", "dropout", "take_rows",
                "mse_loss", "l1_mean", "softmax_cross_entropy")

# (module, attribute) -> span name. Every binding of the same function object
# in any adbcr module gets the wrapper; SITE_NAMES renames particular sites.
FUNCTIONS = {
    ("adbcr.objectives", "build_losses"): "objectives.build_losses",
    ("adbcr.trainer", "step_A"): "trainer.phase.A",
    ("adbcr.trainer", "step_B"): "trainer.phase.B",
    ("adbcr.trainer", "step_C"): "trainer.phase.C",
    ("adbcr.trainer", "evaluate_validation"): "trainer.validation",
    ("adbcr.baselines", "danncr_validation"): "trainer.validation",
    ("adbcr.trainer", "make_batches"): "trainer.batching",
    ("adbcr.trainer", "train"): "run.train",
    ("adbcr.baselines", "danncr_train"): "run.train",
    ("adbcr.baselines", "fit_lasso_on_dataset"): "run.lasso",
    ("adbcr.baselines", "danncr_step_predict"): "baselines.danncr.predict",
    ("adbcr.baselines", "danncr_step_discriminate"): "baselines.danncr.discriminate",
    ("adbcr.baselines", "danncr_step_confuse"): "baselines.danncr.confuse",
    ("adbcr.baselines", "coordinate_descent"): "baselines.coordinate_descent",
    ("adbcr.baselines", "select_alpha"): "baselines.select_alpha",
    ("adbcr.evaluation", "search"): "evaluation.search",
    ("adbcr.evaluation", "nn_pehe"): "evaluation.nn_pehe",
    ("adbcr.model", "dense_forward"): "model.forward",
    ("adbcr.model", "write_checkpoint"): "model.checkpoint.write",
    ("adbcr.model", "read_checkpoint"): "model.checkpoint.read",
    ("adbcr.data", "generate"): "data.generate",
    ("adbcr.data", "save_csv"): "data.save_csv",
    ("adbcr.data", "load_csv"): "data.load_csv",
    ("adbcr.data", "split"): "data.split",
    ("adbcr.cli", "main"): "cli",
}
# The search calls its runs through these bindings; naming them apart lets
# the run spans of a search be told from those of a plain `train`.
SITE_NAMES = {
    ("adbcr.evaluation", "train"): "evaluation.search.run",
    ("adbcr.evaluation", "danncr_train"): "evaluation.search.run",
}
METHODS = {
    ("adbcr.autodiff", "Tape", "backward"): "autodiff.backward",
    ("adbcr.autodiff", "Adam", "step"): "autodiff.adam",
    ("adbcr.model", "AdbcrModel", "predict_potential_outcomes"): "model.predict",
    ("adbcr.baselines", "DanncrModel", "predict_potential_outcomes"): "model.predict",
    ("adbcr.baselines", "LassoModel", "predict_potential_outcomes"): "model.predict",
}
# Spans of one whole training run, for trace coverage.
RUN_SPANS = ("run.train", "run.lasso", "evaluation.search.run")


@dataclass
class _ThreadState:
    spans: dict = field(default_factory=dict)   # name -> [calls, total_s, self_s]
    counts: dict = field(default_factory=dict)  # name -> number
    stack: list = field(default_factory=list)   # child seconds of each open span
    tape_nodes: weakref.WeakKeyDictionary = field(default_factory=weakref.WeakKeyDictionary)


class Tracer:
    """Installs span wrappers on adbcr and aggregates what they record."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    @staticmethod
    def _add(state: _ThreadState, name: str, value: float = 1.0) -> None:
        state.counts[name] = state.counts.get(name, 0.0) + value

    def timed(self, name: str, fn, after=None, cpu: bool = False):
        """Wrap fn in a span; after(state, args, kwargs, result) runs on success."""

        def wrapper(*args, **kwargs):
            state = self._state()
            stack = state.stack
            stack.append(0.0)
            cpu0 = time.thread_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                rec = state.spans.get(name)
                if rec is None:
                    rec = state.spans[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if cpu:
                    self._add(state, name + ".cpu_s", time.thread_time() - cpu0)
            if after is not None:
                after(state, args, kwargs, out)
            return out

        return wrapper

    # -- snapshots ---------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """Spans and counters summed over every thread seen so far."""
        spans: dict = {}
        counts: dict = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, self_s) in list(state.spans.items()):
                rec = spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += self_s
            for name, value in list(state.counts.items()):
                counts[name] = counts.get(name, 0.0) + value
        return spans, counts

    # -- installation ------------------------------------------------------

    def _bind(self, owner, attr: str, wrapper, original) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every traced name; raise LookupError if one no longer exists."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "adbcr" or n.startswith("adbcr."))]
        import adbcr.autodiff as autodiff
        targets = dict(FUNCTIONS)
        for op in AUTODIFF_OPS:
            targets[("adbcr.autodiff", op)] = f"autodiff.{op}"
        for (module_name, attr), name in targets.items():
            original = getattr(sys.modules[module_name], attr, None)
            if not callable(original):
                raise LookupError(f"traced function {module_name}.{attr} not found")
            after = self._after_hook(name, attr)
            for module in modules:
                for site_attr, value in list(vars(module).items()):
                    if value is original:
                        site_name = SITE_NAMES.get((module.__name__, site_attr), name)
                        wrapper = self._wrap_function(site_name, original, after)
                        self._bind(module, site_attr, wrapper, original)
        for (module_name, cls_name, attr), name in METHODS.items():
            cls = getattr(sys.modules[module_name], cls_name, None)
            original = getattr(cls, attr, None) if cls is not None else None
            if not callable(original):
                raise LookupError(f"traced method {module_name}.{cls_name}.{attr} not found")
            self._bind(cls, attr, self.timed(name, original, self._after_hook(name, attr)),
                       original)
        for attr in ("constant", "param"):
            self._bind(autodiff.Tape, attr, self._node_counter(getattr(autodiff.Tape, attr), attr),
                       getattr(autodiff.Tape, attr))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap_function(self, name: str, original, after):
        if name == "cli":
            return self._per_command(original)
        if name == "evaluation.nn_pehe":
            return self._peak_memory(name, original)
        return self.timed(name, original, after, cpu=(name == "evaluation.search.run"))

    # -- per-layer hooks ---------------------------------------------------

    def _after_hook(self, name: str, attr: str):
        if name.startswith("autodiff.") and attr in AUTODIFF_OPS:
            return self._op_hook(name)
        if name == "objectives.build_losses":
            def after(state, args, kwargs, out):
                if kwargs.get("need_distance", True):
                    self._add(state, "objectives.distance_graphs_traced")
            return after
        if name == "autodiff.backward":
            def after(state, args, kwargs, out):
                self._add(state, "autodiff.tape_nodes", state.tape_nodes.get(args[0], 0))
            return after
        if name == "baselines.coordinate_descent":
            return lambda state, args, kwargs, out: self._add(state, name + ".sweeps", out[1])
        if name in ("model.checkpoint.write", "model.checkpoint.read"):
            return lambda state, args, kwargs, out: self._add(
                state, name + ".bytes", os.path.getsize(args[0]))
        if name == "data.load_csv":
            return lambda state, args, kwargs, out: self._add(state, name + ".rows", out.n)
        return None

    def _op_hook(self, name: str):
        """Count the new node on its tape and time its vjp when backward runs it."""
        vjp_name = name + ".vjp"

        def after(state, args, kwargs, out):
            if any(out is a for a in args[1:]):   # dropout in eval mode returns its input
                return
            tape = args[0]
            state.tape_nodes[tape] = state.tape_nodes.get(tape, 0) + 1
            if out.vjp is not None:
                out.vjp = self.timed(vjp_name, out.vjp)

        return after

    def _node_counter(self, original, attr: str):
        def wrapper(tape, *args, **kwargs):
            state = self._state()
            if attr == "constant" or args[0] not in tape.params:
                state.tape_nodes[tape] = state.tape_nodes.get(tape, 0) + 1
            return original(tape, *args, **kwargs)

        return wrapper

    def _per_command(self, original):
        """cli.main as one span per subcommand: cli.generate, cli.train, ..."""
        spans: dict = {}

        def wrapper(argv=None):
            command = argv[0] if argv else "main"
            timed = spans.get(command)
            if timed is None:
                timed = spans[command] = self.timed(f"cli.{command}", original)
            return timed(argv)

        return wrapper

    def _peak_memory(self, name: str, original):
        """Span plus the tracemalloc peak of each call, kept as a running max."""
        timed = self.timed(name, original)

        def wrapper(*args, **kwargs):
            was_tracing = tracemalloc.is_tracing()
            if was_tracing:
                tracemalloc.reset_peak()
            else:
                tracemalloc.start()
            try:
                return timed(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                if not was_tracing:
                    tracemalloc.stop()
                counts = self._state().counts
                counts[name + ".peak_bytes"] = max(counts.get(name + ".peak_bytes", 0.0), peak)

        return wrapper
