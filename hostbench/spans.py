"""Outside-in span recorder: host-time spans around a layer's public calls.

The recorder never edits the program. It replaces a timed function or
method with a thin wrapper at every place the program looks it up from —
each module namespace holding a reference to the original function, or
the defining class for a method — records one span per call, and puts
every original back on :meth:`SpanRecorder.restore`.

A span is a name, a start and an end (``time.perf_counter`` seconds) and
the index of the enclosing span (``-1`` for a root). Spans are kept in
memory in call order, in flat arrays so a million of them stay small, and
written out once at the end of a run (:meth:`SpanRecorder.save`).

The self time of a span is its duration minus the time its child spans
cover. Every recorded call runs on one thread and the wrappers keep a
strict call stack, so a span's children are disjoint intervals inside it
and the time they cover is the sum of their durations (:func:`self_times`).
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

__all__ = ["SpanRecorder", "root_of", "self_times"]


def self_times(starts, ends, parents) -> np.ndarray:
    """Self time of every span: duration minus its children's durations."""
    durations = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    nested = parents >= 0
    covered = np.bincount(
        parents[nested], weights=durations[nested], minlength=len(durations)
    )
    return durations - covered


def root_of(parents) -> np.ndarray:
    """Index of each span's root span (the ancestor whose parent is -1)."""
    roots = np.asarray(parents, dtype=np.int64).copy()
    top = roots < 0
    roots[top] = np.flatnonzero(top)
    while True:
        jumped = roots[roots]
        if np.array_equal(jumped, roots):
            return roots
        roots = jumped


class SpanRecorder:
    """Records spans around patched calls; restores every patch it made."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        """Span name per name id."""
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts: dict[str, float] = {}
        """Counters the call hooks add to (events, bytes, requests...)."""
        self.root_counts: dict[int, dict[str, float]] = {}
        """Root span index -> ``counts`` accumulated inside that root."""
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start: float | None = None

    def __len__(self) -> int:
        return len(self.starts)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ---------------------------------------------------------

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` with one span per call.

        ``before(args)`` returns a token handed to
        ``after(recorder, args, result, token)``; ``after`` runs only when
        the call returned normally.
        """
        code = self._name_id(name)
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, stack, clock = self.parents, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            index = len(starts)
            name_ids.append(code)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result, token)
            return result

        return wrapper

    @contextmanager
    def root(self, name: str):
        """A top-level span the benchmark opens itself (``setup``, ``pass``)."""
        if self._stack:
            raise RuntimeError(f"root span {name!r} opened inside another span")
        before = dict(self.counts)
        index = len(self.starts)
        self.name_ids.append(self._name_id(name))
        self.parents.append(-1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        try:
            yield index
        finally:
            self.ends[index] = self.clock()
            self._stack.pop()
            self.root_counts[index] = {
                key: value - before.get(key, 0.0)
                for key, value in self.counts.items()
                if value != before.get(key, 0.0)
            }

    def drop_since(self, mark: int) -> None:
        """Forget every span recorded from index ``mark`` on."""
        if self._stack:
            raise RuntimeError("cannot drop spans while a span is open")
        for column in (self.name_ids, self.starts, self.ends, self.parents):
            del column[mark:]
        for index in [i for i in self.root_counts if i >= mark]:
            del self.root_counts[index]

    def arrays(self) -> tuple[np.ndarray, ...]:
        """``(name_ids, starts, ends, parents)`` as NumPy arrays."""
        return (
            np.array(self.name_ids, dtype=np.int64),
            np.array(self.starts, dtype=float),
            np.array(self.ends, dtype=float),
            np.array(self.parents, dtype=np.int64),
        )

    def save(self, path) -> None:
        """Write every span (name table + four columns) as one ``.npz``."""
        name_ids, starts, ends, parents = self.arrays()
        np.savez(
            path, names=np.array(self.names), name_ids=name_ids,
            starts=starts, ends=ends, parents=parents,
        )

    # -- patching ----------------------------------------------------------

    def _replace(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch_function(
        self, module: str, attr: str, name: str, prefix: str = "repro",
        before=None, after=None,
    ) -> int:
        """Wrap a module-level function everywhere it is bound.

        Every loaded module under ``prefix`` holding the original object —
        under any attribute name, so ``from m import f as g`` is covered —
        gets the same wrapper. Returns how many bindings were patched.
        """
        original = getattr(sys.modules[module], attr)
        wrapper = self.wrap(name, original, before, after)
        patched = 0
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (
                mod_name == prefix or mod_name.startswith(prefix + ".")
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, wrapper)
                    patched += 1
        return patched

    def patch_method(
        self, cls, attr: str, name: str, before=None, after=None
    ) -> None:
        """Wrap a plain, class- or static method on its defining class."""
        raw = vars(cls)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            value = type(raw)(self.wrap(name, raw.__func__, before, after))
        else:
            value = self.wrap(name, raw, before, after)
        self._replace(cls, attr, value)

    def patch_value(self, owner, attr: str, value) -> None:
        """Replace any attribute outright (restored like the others)."""
        self._replace(owner, attr, value)

    def track_gc(self) -> None:
        """Count collector pauses into ``host.gc_s``/``host.gc_collections``."""
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, _info) -> None:
        if phase == "start":
            self._gc_start = self.clock()
        elif self._gc_start is not None:
            self.add("host.gc_s", self.clock() - self._gc_start)
            self.add("host.gc_collections", 1)
            self._gc_start = None

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
