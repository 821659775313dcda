"""Span tracer that wraps trustb's public functions at each layer boundary.

A layer is one module of the package.  `Tracer.install` replaces, for the
upper modules (runtime, po, models, scenario, cli), every public function
in the module's own namespace and every function the module imported from
another layer, so a call that crosses a module boundary opens a span named
after the module that defines the callee (`kernel.eval_pred_frame`,
`models.machine_setup`, ...).  Public methods of the classes those modules
define are wrapped too, plus `TrustState.__init__`.

Spans stay in memory.  Calls into the leaf layers (kernel, values) and
each resumption of a generator happen millions of times in a level-2
check, so they are aggregated per (parent span, name) instead of stored
one by one; every other call is stored as a span.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import Counter

LAYERS = ("dsl", "typecheck", "values", "kernel", "runtime", "po", "models", "scenario", "cli")
UPPER = ("runtime", "po", "models", "scenario", "cli")
LEAF = ("kernel", "values")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end, self)
        self.hot: dict[tuple[int, str], list] = {}  # (parent, name) -> [count, total, self]
        self.calls: Counter = Counter()
        self.op = 0
        self._stack: list[list] = []  # [id, visible id, name, start, child time, parent, hot]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- spans

    def push(self, name: str, hot: bool = False) -> list:
        # A hot frame is never stored, so spans opened inside it name the
        # nearest stored ancestor as their parent (its "visible" id).
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][1] if self._stack else 0
        frame = [sid, parent if hot else sid, name, time.perf_counter(), 0.0, parent, hot]
        self._stack.append(frame)
        return frame

    def pop(self, frame: list) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[2]} closed out of order")
        sid, _visible, name, start, child, parent, hot = frame
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        if hot:
            agg = self.hot.get((parent, name))
            if agg is None:
                self.hot[(parent, name)] = [1, duration, duration - child]
            else:
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - child
        else:
            self.spans.append((sid, parent, self.op, name, start, end, duration - child))

    @contextlib.contextmanager
    def span(self, name: str, op: int):
        """A root span around one benchmark operation."""
        self.op = op
        frame = self.push(name)
        try:
            yield
        finally:
            self.pop(frame)

    # -- wrapping

    def _wrap(self, name: str, fn, hot: bool):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                tracer.calls[name] += 1
                gen = fn(*args, **kwargs)
                while True:
                    frame = tracer.push(name, hot=True)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.pop(frame)
                    yield item

            traced_gen.__traced__ = True
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            frame = tracer.push(name, hot)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.pop(frame)

        traced.__traced__ = True
        return traced

    def _patch(self, owner, attr: str, name: str, fn, hot: bool) -> None:
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(name, fn, hot))

    def install(self, package) -> None:
        """Wrap the layer boundaries of an imported trustb package."""
        prefix = package.__name__ + "."
        for modname in UPPER:
            mod = getattr(package, modname)
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__traced__", False):
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith(prefix):
                    layer = obj.__module__[len(prefix):]
                    if layer not in LAYERS:
                        continue
                    if layer == modname and attr.startswith("_"):
                        continue
                    self._patch(mod, attr, f"{layer}.{obj.__name__}", obj, layer in LEAF)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mattr, meth in list(vars(obj).items()):
                        public = not mattr.startswith("_") or (
                            mattr == "__init__" and obj.__name__ == "TrustState"
                        )
                        if public and inspect.isfunction(meth):
                            self._patch(obj, mattr, f"{modname}.{obj.__name__}.{mattr}", meth, False)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- derived figures

    def layer_self(self, op_from: int = 0, op_to: int | None = None) -> dict[str, float]:
        """Self seconds per layer over ops in [op_from, op_to)."""
        ops = {s[0]: s[2] for s in self.spans}
        out = {layer: 0.0 for layer in LAYERS}
        out["bench"] = 0.0

        def inside(op: int) -> bool:
            return op >= op_from and (op_to is None or op < op_to)

        for s in self.spans:
            if inside(s[2]):
                out[s[3].split(".", 1)[0]] += s[6]
        for (parent, name), (_n, _total, self_t) in self.hot.items():
            if inside(ops.get(parent, -1)):
                out[name.split(".", 1)[0]] += self_t
        return out

    def dump(self, path: str) -> None:
        """Write the spans and the aggregated leaf calls as one JSON file."""
        body = {
            "columns": ["id", "parent", "op", "name", "start", "end", "self"],
            "spans": self.spans,
            "aggregated": [
                {"parent": p, "name": n, "count": c, "total": t, "self": st}
                for (p, n), (c, t, st) in self.hot.items()
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh)
