"""In-memory span recording around a program's public functions.

A :class:`SpanRecorder` replaces attributes of classes or modules with
wrappers that record one span per call: the layer name, start and end
times from a monotonic nanosecond clock, and the index of the enclosing
span on the same thread (the span that caused it).  Spans go into
per-thread flat arrays, so recording takes no lock and a thread blocked
in one layer never becomes the parent of another thread's spans.

Nothing here edits the program: :meth:`SpanRecorder.install` swaps
attributes from outside and :meth:`SpanRecorder.restore` puts back the
exact objects it found.
"""

from __future__ import annotations

import threading
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np


class _ThreadBuffer:
    """Spans recorded by one thread, in call (start) order."""

    __slots__ = ("thread", "names", "parents", "starts", "ends", "stack")

    def __init__(self, thread: int) -> None:
        self.thread = thread
        self.names = array("H")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.stack: List[int] = []


class SpanRecorder:
    """Record spans around installed wrappers; compute per-layer self time."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._local = threading.local()
        self._buffers: List[_ThreadBuffer] = []
        self._lock = threading.Lock()
        #: (owner, attribute, original object) for every installed wrapper.
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self._ids[name] = nid
        return nid

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:  # once per thread
                buf = _ThreadBuffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` recorded around each call.

        ``on_result`` (if given) receives every value ``fn`` returns.
        """
        nid = self._name_id(name)
        local = self._local
        clock = self.clock
        new_buffer = self._buffer

        def traced(*args: Any, **kwargs: Any) -> Any:
            buf = getattr(local, "buf", None) or new_buffer()
            stack = buf.stack
            index = len(buf.starts)
            buf.names.append(nid)
            buf.parents.append(stack[-1] if stack else -1)
            buf.ends.append(0)
            stack.append(index)
            buf.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.ends[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block (for the benchmark's own steps)."""
        nid = self._name_id(name)
        buf = self._buffer()
        index = len(buf.starts)
        buf.names.append(nid)
        buf.parents.append(buf.stack[-1] if buf.stack else -1)
        buf.ends.append(0)
        buf.stack.append(index)
        buf.starts.append(self.clock())
        try:
            yield
        finally:
            buf.ends[index] = self.clock()
            buf.stack.pop()

    # -- installation -------------------------------------------------------
    def install(
        self,
        name: str,
        owner: Any,
        attribute: str,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Replace ``owner.attribute`` (a class or module) with a wrapper."""
        original = owner.__dict__[attribute]
        setattr(owner, attribute, self.wrap(name, original, on_result))
        self._installed.append((owner, attribute, original))

    def restore(self) -> None:
        """Put back every original object, newest wrapper first."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # -- results ------------------------------------------------------------
    def spans(self) -> Dict[str, np.ndarray]:
        """All spans as flat arrays; ``parent`` indexes into the same arrays."""
        names, parents, starts, ends, threads = [], [], [], [], []
        offset = 0
        for buf in self._buffers:
            n = len(buf.starts)
            parent = np.frombuffer(buf.parents, dtype=np.int64)[:n].copy()
            parent[parent >= 0] += offset
            names.append(np.frombuffer(buf.names, dtype=np.uint16)[:n])
            parents.append(parent)
            starts.append(np.frombuffer(buf.starts, dtype=np.int64)[:n])
            ends.append(np.frombuffer(buf.ends, dtype=np.int64)[:n])
            threads.append(np.full(n, buf.thread, dtype=np.int16))
            offset += n

        def join(parts: List[np.ndarray], dtype: Any) -> np.ndarray:
            return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)

        return {
            "name": join(names, np.uint16),
            "parent": join(parents, np.int64),
            "start_ns": join(starts, np.int64),
            "end_ns": join(ends, np.int64),
            "thread": join(threads, np.int16),
        }

    def layer_totals(self) -> Dict[str, Tuple[int, int, int]]:
        """Per layer name: (calls, inclusive ns, self ns)."""
        return layer_totals(self.spans(), self.names)

    def save(self, path: str) -> None:
        """Write every span to ``path`` (compressed ``.npz``)."""
        spans = self.spans()
        np.savez_compressed(path, names=np.array(self.names), **spans)


def self_ns(spans: Dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap (they nest on one thread's call
    stack), so this is the part of the span no child covers.
    """
    duration = spans["end_ns"] - spans["start_ns"]
    parent = spans["parent"]
    child = parent >= 0
    covered = np.bincount(
        parent[child], weights=duration[child], minlength=len(duration)
    )
    return duration - covered.astype(np.int64)


def layer_totals(
    spans: Dict[str, np.ndarray], names: Sequence[str]
) -> Dict[str, Tuple[int, int, int]]:
    """Per layer name: (calls, inclusive ns, self ns)."""
    n = len(names)
    ids = spans["name"].astype(np.int64)
    duration = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
    calls = np.bincount(ids, minlength=n)
    inclusive = np.bincount(ids, weights=duration, minlength=n)
    own = np.bincount(ids, weights=self_ns(spans).astype(np.float64), minlength=n)
    return {
        name: (int(calls[i]), int(inclusive[i]), int(own[i]))
        for i, name in enumerate(names)
    }


def wrapper_ns_per_call(calls: int = 200_000) -> float:
    """Cost one recorded span adds to an empty call, in nanoseconds."""

    def empty() -> None:
        return None

    recorder = SpanRecorder()
    traced = recorder.wrap("calibrate", empty)
    clock = time.perf_counter_ns
    best = float("inf")
    for _ in range(3):
        start = clock()
        for _ in range(calls):
            empty()
        bare = clock() - start
        start = clock()
        for _ in range(calls):
            traced()
        wrapped = clock() - start
        best = min(best, (wrapped - bare) / calls)
        recorder = SpanRecorder()
        traced = recorder.wrap("calibrate", empty)
    return best
