"""Outside-in span tracing of the layers the solvers call into.

``installed(tracer)`` wraps public functions of ``sampling``, ``sparse``,
``cluster`` and ``model`` wherever a ``casgd`` module binds them, and
restores the originals on exit, so the program itself is never edited and
untraced runs carry no wrappers.  The benchmark records the ``solvers``,
setup and ``cluster.partition`` spans itself, around its own calls.

A span is (name, start, end, parent, config, rows); ``parent`` is the
index of the enclosing span or -1.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from casgd import VirtualCluster, accuracy, loss
from casgd.sampling import BatchStream
from casgd.sparse import batch_scores, gram_lower_blocks

RUN = "solvers.run"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    config: str
    rows: int


def _rows_drawn(args, result) -> int:
    if result and isinstance(result[0], list):
        return sum(len(ids) for ids in result)
    return len(result)


def _rows_arg(args, result) -> int:
    return len(args[1])


# (owner, attribute, span name, rows counter); an owner that is a class is
# patched in place, a function is patched in every casgd module binding it.
_HOOKS = (
    (BatchStream, "next_indices", "sampling.draw", _rows_drawn),
    (BatchStream, "peek_indices", "sampling.draw", _rows_drawn),
    (batch_scores, None, "sparse.scores", _rows_arg),
    (gram_lower_blocks, None, "sparse.gram", _rows_arg),
    (VirtualCluster, "allreduce_sum", "cluster.collective", None),
    (VirtualCluster, "allgather", "cluster.collective", None),
    (loss, None, "model.snapshot", None),
    (accuracy, None, "model.snapshot", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.config = ""
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    @contextmanager
    def span(self, name: str):
        index, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.config, 0)

    def wrap(self, name: str, fn, rows=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.config, rows(args, result) if rows else 0)
            return result

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


@contextmanager
def installed(tracer: Tracer):
    """Route the hooked layer calls through ``tracer`` for the duration."""
    patches = []
    modules = [mod for name, mod in sys.modules.items() if name == "casgd" or name.startswith("casgd.")]
    try:
        for owner, attr, name, rows in _HOOKS:
            if attr is not None:
                original = vars(owner)[attr]
                patches.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(name, original, rows))
                continue
            wrapper = tracer.wrap(name, owner, rows)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is owner:
                        patches.append((mod, key, value))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for target, attr, original in reversed(patches):
            setattr(target, attr, original)


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one traced pass, keyed by metric name."""
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    rows: dict[str, int] = defaultdict(int)
    runs = {i for i, span in enumerate(spans) if span.name == RUN}
    child_s = 0.0
    for span in spans:
        duration = span.end - span.start
        seconds[span.name] += duration
        calls[span.name] += 1
        rows[span.name] += span.rows
        if span.parent in runs:
            child_s += duration
    return {
        "sampling.draw_s": seconds["sampling.draw"],
        "sampling.calls": calls["sampling.draw"],
        "sampling.rows": rows["sampling.draw"],
        "sparse.gram_s": seconds["sparse.gram"],
        "sparse.gram_calls": calls["sparse.gram"],
        "sparse.gram_rows": rows["sparse.gram"],
        "sparse.scores_s": seconds["sparse.scores"],
        "sparse.scores_calls": calls["sparse.scores"],
        "sparse.scores_rows": rows["sparse.scores"],
        "sparse.parse_s": seconds["sparse.parse"],
        "sparse.cache_s": seconds["sparse.cache"],
        "cluster.partition_s": seconds["cluster.partition"],
        "cluster.collective_s": seconds["cluster.collective"],
        "cluster.collective_calls": calls["cluster.collective"],
        "model.snapshot_s": seconds["model.snapshot"],
        "model.snapshots": calls["model.snapshot"],
        "solvers.run_s": seconds[RUN],
        "solvers.self_s": seconds[RUN] - child_s,
    }


def children_tile(spans: list[Span]) -> bool:
    """Every child of a run span lies inside it and no two children overlap.

    This is what makes ``solvers.self_s`` plus the child spans add up to
    ``solvers.run_s``.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    for index, span in enumerate(spans):
        if span.name != RUN:
            continue
        cursor = span.start
        for child in sorted(children[index], key=lambda c: c.start):
            if child.start < cursor or child.end > span.end:
                return False
            cursor = child.end
    return True
