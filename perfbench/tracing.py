"""In-memory spans around calls into the program's modules.

The traced run wraps chosen public functions of ``disambig`` from outside:
every module attribute that holds the original function object is replaced
by a wrapper, so a call made through a name another module imported
(``synthesizer.sample``, ``augmenter.build_system_utterance``) is caught
too.  Nothing under ``src/`` is edited, and :meth:`Tracer.uninstall` puts
every original back.

Each thread keeps its own parent stack, so the worker threads of
``synth --threads 2`` nest their spans correctly.  A span's self time is
its duration minus the durations of its direct children.  Per-name totals
are kept per thread and merged on read, so the hot path takes no lock.
Raw spans are kept in memory up to a cap and written out by the caller
when the run ends.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field

# Raw spans kept per tracer; beyond this only the per-name totals grow.
MAX_RAW_SPANS = 100_000


@dataclass
class NameTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class _ThreadState:
    index: int
    stack: list = field(default_factory=list)  # [span_id, child_seconds] frames
    totals: dict[str, NameTotals] = field(default_factory=dict)
    next_id: int = 0


class Tracer:
    """Records spans for the functions it wraps until it is uninstalled.

    ``observers`` maps a span name to a callable ``(args, kwargs, result,
    error, seconds)`` run after the span closes; observers derive counts
    such as evidence stages or bytes written, and must be thread-safe.
    """

    def __init__(self, observers: dict | None = None, max_raw_spans: int = MAX_RAW_SPANS):
        self.observers = observers or {}
        self.max_raw_spans = max_raw_spans
        self.request: str | None = None
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(index=len(self._threads))
                self._threads.append(state)
            self._local.state = state
        return state

    def wrap(self, name: str, fn):
        observer = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            span_id = (state.index, state.next_id)
            state.next_id += 1
            parent = state.stack[-1] if state.stack else None
            frame = [span_id, 0.0]
            state.stack.append(frame)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                state.stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                totals = state.totals.get(name)
                if totals is None:
                    totals = state.totals[name] = NameTotals()
                totals.calls += 1
                totals.total_s += duration
                totals.self_s += duration - frame[1]
                if len(self.spans) < self.max_raw_spans:
                    self.spans.append((name, span_id, parent[0] if parent else None, self.request, start, end))
                if observer is not None:
                    observer(args, kwargs, result, error, duration)

        return traced

    # --- patching ----------------------------------------------------------

    def install(self, targets: dict[str, tuple[str, ...]], package: str = "disambig") -> list[str]:
        """Wrap ``module.function`` for each target; return the names not found.

        Every loaded module of ``package`` that holds the same function
        object under any attribute name gets the wrapper as well.
        """
        modules = [m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")]
        missing = []
        for module_name, functions in targets.items():
            module = sys.modules.get(f"{package}.{module_name}")
            for function in functions:
                original = getattr(module, function, None) if module else None
                if not callable(original):
                    missing.append(f"{module_name}.{function}")
                    continue
                wrapper = self.wrap(f"{module_name}.{function}", original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patched.append((holder, attr, original))
                            setattr(holder, attr, wrapper)
        return missing

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    # --- reading -----------------------------------------------------------

    def totals(self) -> dict[str, NameTotals]:
        merged: dict[str, NameTotals] = {}
        with self._lock:
            states = list(self._threads)
        for state in states:
            for name, part in state.totals.items():
                into = merged.setdefault(name, NameTotals())
                into.calls += part.calls
                into.total_s += part.total_s
                into.self_s += part.self_s
        return merged

    def span_rows(self):
        """Raw spans as dicts, oldest first, for writing out at the end."""
        for name, span_id, parent, request, start, end in self.spans:
            yield {
                "name": name,
                "id": f"{span_id[0]}.{span_id[1]}",
                "parent": f"{parent[0]}.{parent[1]}" if parent else None,
                "request": request,
                "start": start,
                "end": end,
            }
