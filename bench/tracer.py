"""Span tracer that instruments rgbxalign from outside the package.

`Tracer.install()` replaces every public function of the measured modules,
at every name a caller looks it up under (a module attribute or a name
imported into another rgbxalign module), by a wrapper that records a span:
name, start, end, parent, thread and request id (the frame id inside
`pipeline.process_frame`). A few wrappers also read counters off the
arguments and results the program already passes around. Spans stay in
memory; `summary()` derives busy and self time per layer and function.
Nothing under src/ knows about the tracer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# Modules whose public functions are wrapped; their names are the layers.
# quantiles (too small to time), colmap, cli and errors are left out.
LAYERS = ("synthbench", "matching", "sampling", "densify", "fuse_filter", "imgcore", "metrics", "pipeline")
# Public methods worth a span of their own (module, class, method).
METHODS = (("matching", "ClassicalBackend", "match_pair"),)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    request: str
    start: float
    end: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a pool thread's first span was caused by what the main thread has open
            parent = self._main_stack[-1] if self._main_stack else None
        request = getattr(self._local, "request", None) or (parent.request if parent else "-")
        with self._lock:
            span = Span(len(self.spans), name, parent.id if parent else None,
                        threading.get_ident(), request, 0.0)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"rgbxalign.{name}") for name in LAYERS}
        originals: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                originals[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        # rebind every reference, including names imported into other modules
        for mod in [m for n, m in sys.modules.items() if n.startswith("rgbxalign")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and inspect.isfunction(obj):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, originals[id(obj)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            orig = cls.__dict__[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", orig))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is None:
                return self.call(name, fn, args, kwargs)
            bound = sig.bind(*args, **kwargs)
            return hook(self, name, fn, bound)

        return wrapper

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        """Busy/self seconds and calls per function and per layer."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        funcs: dict[str, dict[str, float]] = {}
        layers: dict[str, dict[str, float]] = {}
        overlap = 0.0
        for s in self.spans:
            kids = children.get(s.id, [])
            covered = _union_length([(k.start, k.end) for k in kids])
            overlap += sum(k.end - k.start for k in kids) - covered
            self_s = (s.end - s.start) - covered
            f = funcs.setdefault(s.name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
            f["self_s"] += self_s
            f["calls"] += 1
            layer = s.name.split(".")[0]
            lay = layers.setdefault(layer, {"busy_s": 0.0, "self_s": 0.0})
            lay["self_s"] += self_s
        # busy time counts only outermost spans of a name (or layer), so
        # recursion and nested calls within a layer are not counted twice
        by_id = {s.id: s for s in self.spans}
        for s in self.spans:
            ancestors = _ancestors(s, by_id)
            if s.name not in {a.name for a in ancestors}:
                funcs[s.name]["busy_s"] += s.end - s.start
            layer = s.name.split(".")[0]
            if layer not in {a.name.split(".")[0] for a in ancestors}:
                layers[layer]["busy_s"] += s.end - s.start
        return {"functions": funcs, "layers": layers, "overlap_s": overlap}

    def write(self, path: Path) -> None:
        rows = [vars(s) for s in self.spans]
        path.write_text(json.dumps({"spans": rows, "counters": self.counters}) + "\n")


def _ancestors(span: Span, by_id: dict[int, Span]) -> list[Span]:
    out = []
    while span.parent is not None:
        span = by_id[span.parent]
        out.append(span)
    return out


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# ---------------------------------------------------------------------------
# Counter hooks: each calls the original through the tracer and reads counts
# off the arguments and results the program already exchanges.
# ---------------------------------------------------------------------------


def _process_frame(tr: Tracer, name, fn, b):
    ctx, n = b.arguments["ctx"], b.arguments["n"]
    tr._local.request = ctx.frame_ids[n]
    try:
        return tr.call(name, fn, b.args, b.kwargs)
    finally:
        tr._local.request = None


def _estimate_homography(tr: Tracer, name, fn, b):
    from rgbxalign.errors import EstimationFailedError

    try:
        hom, mask = tr.call(name, fn, b.args, b.kwargs)
    except EstimationFailedError:
        tr.add("matching.homography_failed", 1)
        raise
    tr.add("matching.ransac_inliers", int(mask.sum()))
    tr.add("matching.ransac_matches", len(b.arguments["ms"]))
    return hom, mask


def _accumulate_matches(tr: Tracer, name, fn, b):
    sets = b.arguments["sets"]
    sparse, conf = tr.call(name, fn, b.args, b.kwargs)
    tr.add("matching.pairs", len(sets))
    tr.add("matching.matches", sum(len(ms) for ms in sets))
    tr.add("matching.known_px", sparse.num_known)
    tr.add("matching.px", sparse.values.size)
    return sparse, conf


def _area_sample(tr: Tracer, name, fn, b):
    before = b.arguments["sparse"].num_known
    sparse, conf = tr.call(name, fn, b.args, b.kwargs)
    tr.add("sampling.pixels_added", sparse.num_known - before)
    tr.add("sampling.known_before_px", before)
    tr.add("sampling.known_after_px", sparse.num_known)
    tr.add("sampling.px", sparse.values.size)
    return sparse, conf


def _propagate(tr: Tracer, name, fn, b):
    from rgbxalign.densify import DensifyConfig

    if b.arguments.get("step_sizes") is None:
        b.arguments["step_sizes"] = []
    steps = b.arguments["step_sizes"]
    start = len(steps)
    out = tr.call(name, fn, b.args, b.kwargs)
    cfg = b.arguments.get("cfg") or DensifyConfig()
    tr.add("densify.propagate.iterations", len(steps) - start)
    tr.add("densify.propagate.converged", int(len(steps) > start and steps[-1] < cfg.tol))
    return out


def _densify_multilevel(tr: Tracer, name, fn, b):
    from rgbxalign.densify import DensifyConfig

    levels = tr.call(name, fn, b.args, b.kwargs)
    cfg = b.arguments.get("cfg") or DensifyConfig()
    tr.add("densify.levels_produced", len(levels))
    tr.add("densify.levels_configured", len(cfg.thresholds))
    return levels


def _concentration_and_filter(tr: Tracer, name, fn, b):
    result = tr.call(name, fn, b.args, b.kwargs)
    tr.add("fuse_filter.rejected_patches", int(result.rejected_patches.sum()))
    tr.add("fuse_filter.patches", result.rejected_patches.size)
    return result


def _image_file(tr: Tracer, name, fn, b):
    out = tr.call(name, fn, b.args, b.kwargs)
    tr.add(f"{name}.bytes", Path(b.arguments["path"]).stat().st_size)
    return out


_HOOKS = {
    "pipeline.process_frame": _process_frame,
    "matching.estimate_homography": _estimate_homography,
    "matching.accumulate_matches": _accumulate_matches,
    "sampling.area_sample": _area_sample,
    "densify.propagate": _propagate,
    "densify.densify_multilevel": _densify_multilevel,
    "fuse_filter.concentration_and_filter": _concentration_and_filter,
    "imgcore.load_image": _image_file,
    "imgcore.save_image": _image_file,
}
