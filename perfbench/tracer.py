"""Outside-in span tracer for the excyl layers.

The tracer changes no excyl source.  It replaces each traced public entry
point at the module attribute its caller looks it up from (for example
``excyl.modes.kernel_K_derivs``, which ``modes._scaled_kernels`` reads from
its module globals) with a wrapper that records a span: name, layer, start,
end, parent span and operation id.  Spans stay in memory.  A layer's self
time is the duration of its spans minus the time their child spans cover.

An entry point that no longer exists is a hard error (``TracerError``), not
a silent zero, so a refactor that renames or moves a layer cannot fake a
gain: the benchmark's entry-point table has to be updated with it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


class TracerError(RuntimeError):
    """A traced entry point is missing or not callable."""


def _count_bessel(counts, args, kwargs, result):
    r = args[2] if len(args) > 2 else kwargs["r"]
    counts["bessel.calls"] += 1
    counts["bessel.points"] += 3 * len(r)  # orders a, a+1, a+2 per point


def _count_radial(counts, args, kwargs, result):
    counts["radial.calls"] += 1


def _count_convolve(counts, args, kwargs, result):
    counts["fourier.convolve.calls"] += 1


def _count_mode_solve(counts, args, kwargs, result):
    counts["modes.solves"] += 1


def _count_iterations(counts, args, kwargs, result):
    counts["picard.iterations"] += result.iterations


# (module, attribute, layer, counter).  Every name is wrapped where its caller
# resolves it at call time, so nested calls produce nested spans.
ENTRY_POINTS = (
    ("excyl.modes", "kernel_K_derivs", "bessel", _count_bessel),
    ("excyl.modes", "kernel_I_derivs", "bessel", _count_bessel),
    ("excyl.modes", "exp_weighted_prefix", "radial.quad", _count_radial),
    ("excyl.modes", "exp_weighted_suffix", "radial.quad", _count_radial),
    ("excyl.modes", "integrate_inner", "radial.quad", _count_radial),
    ("excyl.modes", "integrate_outer", "radial.quad", _count_radial),
    ("excyl.modes", "solve_zero_swirl", "modes", _count_mode_solve),
    ("excyl.modes", "solve_zero_meridional", "modes", _count_mode_solve),
    ("excyl.modes", "solve_swirl_mode", "modes", _count_mode_solve),
    ("excyl.modes", "solve_meridional_mode", "modes", _count_mode_solve),
    ("excyl.picard", "solve_linear_system", "modes", None),
    ("excyl.picard", "convolve_product", "fourier.convolve", _count_convolve),
    ("excyl.picard", "convolution_tail_norm", "fourier.convolve", _count_convolve),
    ("excyl.picard", "bnorm", "fourier.norms", None),
    ("excyl.picard", "enorm", "fourier.norms", None),
    ("excyl.picard", "vnorm", "fourier.norms", None),
    ("excyl.picard", "assemble_rhs", "picard.assemble", None),
    ("excyl.picard", "picard_solve", "picard", _count_iterations),
    ("excyl.picard", "nonuniqueness_pair", "picard", None),
    ("excyl.cli", "picard_solve", "picard", _count_iterations),
    ("excyl.residuals", "attach_residual_report", "residuals", None),
    ("excyl.cli", "attach_residual_report", "residuals", None),
    ("excyl.cli", "parse_config", "cli", None),
    ("excyl.cli", "main", "cli", None),
)

ROOT_LAYER = "bench"


@dataclass
class Span:
    name: str
    layer: str
    op: int
    phase: str           # name of the root span this span runs under
    parent: int          # index into Tracer.spans, -1 for a root span
    start: float
    end: float = 0.0
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self, entry_points=ENTRY_POINTS):
        self.entry_points = entry_points
        self.spans: List[Span] = []
        self.counts: Dict[tuple, Counter] = {}  # (op, phase) -> counts
        self._stack: List[int] = []
        self._patched: list = []
        self._op = -1
        self._phase = ""

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise TracerError("tracer already installed")
        try:
            for modname, attr, layer, counter in self.entry_points:
                module = importlib.import_module(modname)
                original = getattr(module, attr, None)
                if original is None or not callable(original):
                    raise TracerError(
                        f"traced entry point {modname}.{attr} is missing; "
                        "update perfbench/tracer.py ENTRY_POINTS")
                wrapped = self._wrap(f"{modname}.{attr}", layer, original, counter)
                setattr(module, attr, wrapped)
                self._patched.append((module, attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap(self, name: str, layer: str, fn: Callable,
              counter: Optional[Callable]):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                key = (tracer._op, tracer._phase)
                counter(tracer.counts.setdefault(key, Counter()),
                        args, kwargs, result)
            return result

        return wrapper

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, self._op, self._phase, parent,
                               time.perf_counter()))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        if self._stack.pop() != idx:
            raise TracerError(f"span {span.name} closed out of order")
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.duration

    @contextlib.contextmanager
    def root(self, op: int, name: str):
        """Root span of one benchmark step (the timed op, or its check)."""
        self._op, self._phase = op, name
        idx = self._open(name, ROOT_LAYER)
        try:
            yield
        finally:
            self._close(idx)
            self._op, self._phase = -1, ""

    # -- summaries ------------------------------------------------------------

    def self_times(self, op: int, phase: Optional[str] = None) -> Dict[str, float]:
        """Self time per layer of the spans of operation op (one phase or all)."""
        out: Dict[str, float] = {}
        for span in self.spans:
            if span.op == op and (phase is None or span.phase == phase):
                out[span.layer] = out.get(span.layer, 0.0) + span.self_time
        return out

    def root_duration(self, op: int, phase: str) -> float:
        return sum(s.duration for s in self.spans
                   if s.op == op and s.parent < 0 and s.phase == phase)
