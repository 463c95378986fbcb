"""In-memory span tracer that times the program's layers from outside.

Spans are recorded by wrapping public functions and methods of the
``repro`` modules; nothing under ``src/`` changes.  Each span keeps its
name, start, end and parent in flat arrays, so a traced run holds
hundreds of thousands of spans without building an object per call.
The spans are written out when a process finishes its traced work and
self times are computed afterwards: a span's duration minus the
durations of its direct children.

A function that re-enters itself (``ShellEngine.run_line`` via
``sh -c``, a subclass ``handle`` calling its parent's) records only the
outermost call, so totals never count the same interval twice.

Pool workers forked by the parallel engine inherit the wrapped module
attributes.  Their task functions are wrapped too, so each worker
resets its copy of the tracer before a task and writes its spans to the
trace directory after it; the pass process merges those files.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

ROOT = "pass"


class Tracer:
    """Spans and counters of one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ix = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._open: set[str] = set()
        self.counters: dict[str, float] = {}
        self.lines: set[str] = set()

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> int:
        ix = self._ids.get(name)
        if ix is None:
            ix = self._ids[name] = len(self.names)
            self.names.append(name)
        span = len(self.start)
        self.name_ix.append(ix)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(span)
        self._open.add(name)
        self.start.append(time.perf_counter())
        return span

    def finish(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        self._stack.pop()
        self._open.discard(self.names[self.name_ix[span]])

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def total_s(self, name: str) -> float:
        """Summed duration of this process's finished ``name`` spans."""
        ix = self._ids.get(name)
        return sum(
            self.end[span] - self.start[span]
            for span in range(len(self.start))
            if self.name_ix[span] == ix
        )

    # -- output ----------------------------------------------------------

    def dump(self, directory: Path, tag: str) -> Path:
        """Write this process's spans and counters to ``directory``."""
        path = Path(directory) / f"spans-{tag}-{os.getpid()}.json"
        document = {
            "names": self.names,
            "name_ix": self.name_ix.tobytes().hex(),
            "start": self.start.tobytes().hex(),
            "end": self.end.tobytes().hex(),
            "parent": self.parent.tobytes().hex(),
            "counters": self.counters,
            "lines": sorted(self.lines),
        }
        path.write_text(json.dumps(document))
        return path


def load_spans(path: Path) -> dict:
    """Read one dumped span file back into numpy arrays."""
    document = json.loads(Path(path).read_text())
    for key, dtype in (
        ("name_ix", np.int32),
        ("start", np.float64),
        ("end", np.float64),
        ("parent", np.int32),
    ):
        document[key] = np.frombuffer(bytes.fromhex(document[key]), dtype=dtype)
    return document


def layer_totals(document: dict) -> dict[str, dict[str, float]]:
    """Per span name: ``total_s``, ``self_s`` and ``calls``.

    Self time is a span's duration minus its direct children's, which
    never overlap because every span of a process runs on one thread.
    """
    duration = document["end"] - document["start"]
    child = np.zeros_like(duration)
    has_parent = document["parent"] >= 0
    np.add.at(child, document["parent"][has_parent], duration[has_parent])
    self_time = duration - child
    totals: dict[str, dict[str, float]] = {}
    for ix, name in enumerate(document["names"]):
        mask = document["name_ix"] == ix
        totals[name] = {
            "total_s": float(duration[mask].sum()),
            "self_s": float(self_time[mask].sum()),
            "calls": int(mask.sum()),
        }
    return totals


def root_gap(document: dict) -> tuple[float, float]:
    """``(root duration, time under the root covered by no child span)``."""
    names = document["names"]
    if ROOT not in names:
        return 0.0, 0.0
    root_ix = names.index(ROOT)
    roots = np.flatnonzero(document["name_ix"] == root_ix)
    duration = document["end"] - document["start"]
    total = gap = 0.0
    for root in roots:
        covered = duration[document["parent"] == root].sum()
        total += float(duration[root])
        gap += float(duration[root] - covered)
    return total, gap


# -- wrapping -----------------------------------------------------------

TRACER = Tracer()


def span_wrapper(fn, name, on_call=None):
    """``fn`` recording a span per call; ``on_call(args)`` counts work."""
    tracer = TRACER
    dynamic = callable(name)
    if asyncio.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            span_name = name(args) if dynamic else name
            if span_name in tracer._open:
                return await fn(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            span = tracer.begin(span_name)
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.finish(span)

        return traced_async

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span_name = name(args) if dynamic else name
        if span_name in tracer._open:
            return fn(*args, **kwargs)
        if on_call is not None:
            on_call(args)
        span = tracer.begin(span_name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.finish(span)

    return traced


def wrap_method(cls, attr: str, name, on_call=None) -> None:
    """Time ``cls.attr`` as span ``name`` (a string or ``f(args)``)."""
    setattr(cls, attr, span_wrapper(cls.__dict__[attr], name, on_call))


def wrap_function(module, attr: str, name, on_call=None) -> None:
    """Time the function ``module.attr`` wherever it was imported by name.

    Every loaded module that holds the same function object under the
    same name gets the wrapper, so ``from x import f`` call sites are
    traced too; later lazy imports read the patched defining module.
    """
    original = getattr(module, attr)
    wrapper = span_wrapper(original, name, on_call)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, attr, None) is original:
            setattr(loaded, attr, wrapper)


def wrap_worker_task(module, attr: str, directory: Path) -> None:
    """Collect the spans a forked pool worker records during one task.

    The wrapper keeps the original's module and qualified name, so the
    pool pickles it by reference and the forked worker resolves the
    same wrapper.  A task the parent runs in-process (the engine's
    serial fallback) is traced like any other parent call.
    """
    original = getattr(module, attr)
    tracer = TRACER

    @functools.wraps(original)
    def task(*args, **kwargs):
        if os.getpid() == tracer.pid:
            return original(*args, **kwargs)
        tracer.reset()
        try:
            return original(*args, **kwargs)
        finally:
            tag = f"worker-{attr.strip('_')}-{time.monotonic_ns()}"
            tracer.dump(directory, tag)

    setattr(module, attr, task)
