"""Spans around the public functions of shiftop's modules, installed at run time.

``Tracer.install`` replaces every public module-level function of the five
layers (``wiener``, ``operators``, ``invertibility``, ``process``, ``cli``)
with a wrapper that records a span: name, start, end and parent.  A function
imported by name into another module (``process`` imports ``classify_roots``
and ``invert_causal`` from ``invertibility``) is rebound there too, so the
call is traced whichever module makes it.  Nothing under ``src/`` changes;
``uninstall`` puts every original back.

Spans stay in memory; ``layer_metrics`` turns one pass's spans into the
per-layer metrics, where a span's self time is its duration minus the time
covered by its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

PACKAGE = "shiftop"
LAYERS = ("wiener", "operators", "invertibility", "process", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _matrix_dim(operator) -> int:
    matrix = getattr(operator, "matrix", operator)
    return int(matrix.shape[0])


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Work counters computed at the layer boundary from arguments and results:
# (args, kwargs, result or None, exception or None) -> {counter: amount}.
COUNTERS = {
    "operators.operator_norm": lambda a, k, r, e: {"n3": _matrix_dim(_arg(a, k, 0, "operator")) ** 3},
    "invertibility.invert_causal": lambda a, k, r, e: {
        "coeffs": r.truncation_len if r is not None else 0,
        "uncertified": int(type(e).__name__ == "TailNotCertifiedError"),
    },
    "wiener.evaluate_on_grid": lambda a, k, r, e: {"points": int(_arg(a, k, 1, "grid_size"))},
    "process.simulate": lambda a, k, r, e: {"samples": r.t_len if r is not None else 0},
    "process.sample_to_csv": lambda a, k, r, e: {"rows": _arg(a, k, 0, "sample").t_len},
}


def public_functions(module):
    """``(name, function)`` for each public function defined in ``module``."""
    for name, obj in vars(module).items():
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Records nested spans for calls into the shiftop layers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Record a span around the ``with`` body, nested under the open span."""
        index = len(self.spans)
        self.spans.append(
            Span(name, time.perf_counter(), parent=self._stack[-1] if self._stack else -1)
        )
        self._stack.append(index)
        try:
            yield self.spans[index]
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = error = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                except BaseException as exc:
                    error = exc
                    raise
                finally:
                    if counter is not None:
                        span.counts = counter(args, kwargs, result, error)

        return traced

    def install(self) -> None:
        """Wrap each layer's public functions and rebind every import site."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        sites = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for fname, fn in list(public_functions(module)):
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for site in sites:
                    for attr, value in list(vars(site).items()):
                        if value is fn:
                            self._saved.append((site, attr, fn))
                            setattr(site, attr, wrapper)

    def uninstall(self) -> None:
        for site, attr, fn in reversed(self._saved):
            setattr(site, attr, fn)
        self._saved.clear()

    def take(self) -> list[Span]:
        """Hand over the recorded spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """``<span>.calls``, ``<span>.self_s`` and ``<span>.<counter>`` summed over spans."""
    metrics: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        metrics[f"{span.name}.calls"] = metrics.get(f"{span.name}.calls", 0) + 1
        metrics[f"{span.name}.self_s"] = metrics.get(f"{span.name}.self_s", 0.0) + own
        for counter, amount in span.counts.items():
            key = f"{span.name}.{counter}"
            metrics[key] = metrics.get(key, 0) + amount
    return metrics
