"""Outside-in tracer: wraps the public functions of rmckit's layer modules.

Nothing under `src/` knows about it.  `Tracer.install` replaces every public
function defined in a layer module with a recording wrapper, in every loaded
`rmckit` module namespace that holds it, so that a call made through a
name imported elsewhere (``transducer.minimize``) is recorded as well, as a
child of the span that made it.  `Tracer.restore` puts every original back.

A span is ``(id, name, start, end, parent, check)``.  Spans are kept in
memory while checks run and written out by `write_spans` at the end.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

PACKAGE = "rmckit"

# Modules whose public functions are timed.  `alphabet`, `fixtures` and
# `errors` do no timed work of their own.
LAYERS = (
    "automata",
    "omega",
    "transducer",
    "system",
    "gsp",
    "losp",
    "simulation",
    "fileformat",
    "cli",
)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    check: object


# Size counters read from a wrapped call: name -> [(stat, reader(args, result))].
# Each reader returns the amount to add for one call.
COUNTERS: dict[str, list[tuple[str, Callable]]] = {
    "automata.minimize": [
        ("states_in", lambda args, out: args[0].n_states),
        ("states_out", lambda args, out: out.n_states),
    ],
    "transducer.closure": [
        ("steps", lambda args, out: out.steps_used),
        ("converged", lambda args, out: int(out.converged)),
    ],
    "simulation.sim_fixpoint": [
        ("iterations", lambda args, out: out.iteration_index),
    ],
    "gsp.build_augmented_finite": [
        ("alphabet_size", lambda args, out: out.alphabet.size),
    ],
    "losp.build_augmented_losp": [
        ("alphabet_size", lambda args, out: out.alphabet.size),
    ],
}


def layer_functions() -> dict[str, Callable]:
    """Public functions defined in each layer module, keyed `module.function`."""
    out = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, value in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                out[f"{layer}.{name}"] = value
    return out


class Tracer:
    """Records spans of wrapped calls made while a check is active."""

    def __init__(self):
        self.functions = layer_functions()
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], float] = {}
        self.check: object = None  # spans are recorded only while set
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._count_lock = threading.Lock()
        self.bindings: list[tuple[object, str, Callable]] = []  # (module, name, original)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self.bindings:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.functions.items()}
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self.bindings.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        self.check = None
        for module, attr, original in reversed(self.bindings):
            setattr(module, attr, original)
        self.bindings.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counters = COUNTERS.get(name, ())
        clock = time.perf_counter

        def traced(*args, **kwargs):
            check = self.check
            if check is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                # first call in a worker thread (the CLI slice pool): the
                # span open on the main thread submitted it
                parent = self._main_stack[-1]
            else:
                parent = None
            span_id = next(self._ids)
            stack.append(span_id)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, check))
            for stat, read in counters:
                key = (name, stat)
                with self._count_lock:  # pool threads update counts too
                    self.counts[key] = self.counts.get(key, 0) + read(args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def take(self) -> tuple[list[Span], dict[tuple[str, str], float]]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts


def _package_modules() -> list[object]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


# ---------------------------------------------------------------------------
# arithmetic


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover.

    Children may overlap when they ran on different threads, so the covered
    part is the union of their intervals, not the sum of their durations.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per function name: calls, total_s (busy time) and self_s."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += own[s.id]
    return out


def write_spans(path: Path, spans: Iterable[Span]) -> None:
    """One JSON array per line: id, name, start, end, parent, check."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        for s in spans:
            f.write(json.dumps(list(s)) + "\n")
