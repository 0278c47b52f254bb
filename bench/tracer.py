"""In-memory span recorder that times railsched's layers from outside the package.

The benchmark never edits `src/`. Instead it rebinds the public names that
`engine`, `policies`, `sweep` and `cli` look up at call time (for example
`railsched.engine.decide` or `railsched.policies.solve_slot`) to wrappers
that record one span per call: a name, a start, an end and the enclosing
span.  Spans live in flat arrays while the workload runs; `Spans.save`
writes them out once at the end.  Self time is a span's duration minus the
time its direct children cover.
"""

from __future__ import annotations

import time
from array import array

import numpy as np


class Spans:
    """Flat span store: name id, parent index (-1 at the root), start and end in seconds."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def id_of(self, name: str) -> int | None:
        """The id of a span name, or None if no span of that name was ever wrapped."""
        return self._ids.get(name)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_exit=None):
        """Return `fn` wrapped in a span; `on_exit(args, result)` runs after the span closes."""
        nid = self._id(name)
        ids, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if on_exit is not None:
                on_exit(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_exit=None) -> None:
        """Rebind `owner.attr` to a traced wrapper until `restore` is called."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_exit))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """Columns as numpy arrays, plus `duration` and `self_time` in seconds."""
        parent = np.frombuffer(self.parent, dtype=np.int64) if len(self.parent) else np.zeros(0, np.int64)
        start = np.frombuffer(self.start, dtype=np.float64) if len(self.start) else np.zeros(0)
        end = np.frombuffer(self.end, dtype=np.float64) if len(self.end) else np.zeros(0)
        name_id = np.frombuffer(self.name_id, dtype=np.int64) if len(self.name_id) else np.zeros(0, np.int64)
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(parent))
        return {
            "name_id": name_id,
            "parent": parent,
            "start": start,
            "end": end,
            "duration": duration,
            "self_time": duration - child_time,
        }

    def save(self, path) -> None:
        cols = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=cols["name_id"],
            parent=cols["parent"],
            start=cols["start"],
            end=cols["end"],
        )
