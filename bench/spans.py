"""Runtime span tracing of the tracespaces layers, from outside the package.

The package imports its public functions with ``from .x import y``, so a
call made through ``tracespaces.suites.space_norm`` never looks at
``tracespaces.spaces.space_norm``.  ``Tracer.install`` therefore replaces
each traced function in every ``tracespaces`` module namespace that holds
it, and each traced method on its class.  ``Tracer.uninstall`` puts the
originals back.

Spans are kept in memory as ``[name, start, end, parent]`` records and
turned into per-layer metrics when the pass ends.  A span's self time is
its duration minus the time its direct children cover; calls within one
thread nest strictly, so that is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

# The layers are the package modules.  A public function of a module is
# traced under the module's name unless SPAN_NAMES gives it a finer one.
LAYER_MODULES = ("grid", "weights", "dyadic", "spaces", "operators", "extension",
                 "trace", "embeddings", "stefan", "report", "suites", "cli")

SPAN_NAMES = {
    ("spaces", "space_norm"): "spaces.space_norm",
    ("spaces", "difference_seminorm"): "spaces.diffnorm",
    ("grid", "weighted_lp_norm"): "grid.lp_norm",
    ("grid", "random_band_limited"): "grid.build",
    ("grid", "fourier_synthesize"): "grid.build",
    ("operators", "batch_interp_norm_resolvent"): "operators.batch_interp",
    ("operators", "interp_norm_resolvent"): "operators.interp_scalar",
    ("trace", "windowed_orbit"): "trace.orbit",
    ("trace", "resolvent_orbit"): "trace.orbit",
    ("trace", "semigroup_orbit"): "trace.orbit",
    ("trace", "trace_continuity_ratio"): "trace.ratio",
    ("trace", "right_inverse_check"): "trace.ratio",
    ("trace", "semigroup_orbit_ratio"): "trace.ratio",
    ("trace", "frac_power_reparam_ratio"): "trace.ratio",
}

# Public methods that carry layer work, as (module, class, method, span).
METHODS = (
    ("grid", "GridFunction", "__init__", "grid.build"),
    ("grid", "QuadratureMesh", "__init__", "grid.build"),
    ("grid", "GridFunction", "evaluate", "grid.evaluate"),
    ("grid", "QuadratureMesh", "weights", "grid.weights"),
    ("grid", "QuadratureMesh", "weights_on_interval", "grid.weights"),
    ("extension", "ExtensionOperator", "apply", "extension"),
    ("report", "BaselineStore", "check", "report"),
)

# Every span name a pass reports, so that absent layers read 0.
SPAN_ORDER = ("spaces.space_norm", "spaces.diffnorm", "spaces", "grid.evaluate",
              "grid.weights", "grid.lp_norm", "grid.build", "operators.batch_interp",
              "operators.interp_scalar", "operators", "dyadic", "extension",
              "trace.orbit", "trace.ratio", "trace", "embeddings", "stefan",
              "weights", "report", "suites", "cli")


def replace_everywhere(replacements):
    """Rebind each function in ``replacements`` to its replacement in every
    loaded ``tracespaces`` module; returns the patches for ``restore``."""
    patches = []
    for key, mod in list(sys.modules.items()):
        if mod is None or not (key == "tracespaces" or key.startswith("tracespaces.")):
            continue
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in replacements:
                setattr(mod, attr, replacements[value])
                patches.append((mod, attr, value))
    return patches


def restore(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def self_times(spans):
    """Per-name ``(self seconds, calls)`` of closed spans.

    ``spans`` holds ``(name, start, end, parent)`` tuples; ``parent`` is
    the index of the enclosing span or ``None``.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    out = defaultdict(lambda: [0.0, 0])
    for (name, start, end, _), cov in zip(spans, covered):
        acc = out[name]
        acc[0] += (end - start) - cov
        acc[1] += 1
    return {name: (acc[0], acc[1]) for name, acc in out.items()}


def root_seconds(spans):
    """Total duration of the spans that no other span encloses."""
    return sum(end - start for _, start, end, parent in spans if parent is None)


class Tracer:
    """Span recorder plus the work counters measured at the same boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(float)
        self.labels = {}
        self._stack = []
        self._patches = []
        # distinct (function, mesh) pairs seen by space_norm; weak keys so
        # tracing keeps no function (and none of its caches) alive
        self._pairs = weakref.WeakKeyDictionary()

    # -- recording ------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = self.clock()

    def span(self, name, fn, count=None):
        """Wrap ``fn`` in a span.  Inside the span, ``count(tracer, args,
        kwargs)`` records work and returns the arguments to call with."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                if count is not None:
                    args, kwargs = count(self, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                self.close()

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self):
        """Replace every traced function and method of the loaded package."""
        modules = {name: importlib.import_module(f"tracespaces.{name}")
                   for name in LAYER_MODULES}
        replacements = {}
        for mod_name, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = SPAN_NAMES.get((mod_name, attr), mod_name)
                    replacements[fn] = self.span(name, fn, COUNTERS.get(attr))
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(modules[mod_name], cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, self.span(name, fn, COUNTERS.get(f"{cls_name}.{meth}")))
            self._patches.append((cls, meth, fn))
        self._patches += replace_everywhere(replacements)
        return self

    def uninstall(self):
        restore(self._patches)
        self._patches.clear()

    # -- metrics ----------------------------------------------------------

    def layer_metrics(self, wall_s):
        """Per-layer metrics of the spans recorded during ``wall_s`` seconds."""
        recorded = [tuple(s) for s in self.spans]
        times = self_times(recorded)
        out = {}
        for name in SPAN_ORDER:
            self_s, calls = times.get(name, (0.0, 0))
            out[f"{name}.self_s"] = self_s
            out[f"{name}.calls"] = calls
        out.update(self.counts)
        pairs = self.counts.get("spaces.pairs", 0.0)
        out["spaces.reuse_ratio"] = out["spaces.space_norm.calls"] / pairs if pairs else 0.0
        for index, suite in self.labels.items():
            _, start, end, _ = self.spans[index]
            key = f"suites.{suite}.wall_s"
            out[key] = out.get(key, 0.0) + (end - start)
        uncovered = max(wall_s - root_seconds(recorded), 0.0)
        out["tracing.uncovered_s"] = uncovered
        out["tracing.unattributed_share"] = (
            (out["suites.self_s"] + out["cli.self_s"] + uncovered) / wall_s if wall_s > 0 else 0.0)
        return out


# ---------------------------------------------------------------------------
# work counters, recorded when a span opens
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_space_norm(tracer, args, kwargs):
    from tracespaces.grid import QuadratureMesh

    f, spec = args[0], _arg(args, kwargs, 1, "spec")
    sys_ = _arg(args, kwargs, 2, "sys")
    mesh = _arg(args, kwargs, 3, "mesh")
    if mesh is None:
        # the mesh space_norm would build itself, built here to key the pair
        mesh = QuadratureMesh.for_function(f)
        args, kwargs = args[:3], dict(kwargs, mesh=mesh)
    key = (mesh.half_width, mesh.n_cells, mesh.grading, mesh.order)
    seen = tracer._pairs.setdefault(f, set())
    if key not in seen:
        seen.add(key)
        tracer.counts["spaces.pairs"] += 1
    synth_key = ("synth",) + key
    # only B and F norms synthesize the dyadic blocks at the mesh nodes
    if spec.kind in ("B", "F") and sys_ is not None and synth_key not in seen:
        seen.add(synth_key)
        tracer.counts["spaces.block_synth_macs"] += (
            mesh.nodes.size * f.active_indices.size * f.dim * (sys_.max_block + 1))
    return args, kwargs


def _count_batch_interp(tracer, args, kwargs):
    shape = np.shape(_arg(args, kwargs, 3, "values"))
    tracer.counts["operators.batch_interp.vectors"] += math.prod(shape[:-1])
    return args, kwargs


def _count_orbit(tracer, args, kwargs):
    tracer.counts["trace.orbit.count"] += 1
    return args, kwargs


def _count_suite(tracer, args, kwargs):
    tracer.labels[tracer._stack[-1]] = _arg(args, kwargs, 0, "name")
    return args, kwargs


def _count_evaluate(tracer, args, kwargs):
    f, t = args[0], _arg(args, kwargs, 1, "t")
    tracer.counts["grid.evaluate.macs"] += np.size(t) * f.active_indices.size * f.dim
    return args, kwargs


def _count_extension_apply(tracer, args, kwargs):
    tracer.counts["extension.apply.points"] += np.size(_arg(args, kwargs, 2, "t"))
    return args, kwargs


# Keyed by function name or ``Class.method``.
COUNTERS = {
    "space_norm": _count_space_norm,
    "batch_interp_norm_resolvent": _count_batch_interp,
    "windowed_orbit": _count_orbit,
    "run_suite": _count_suite,
    "GridFunction.evaluate": _count_evaluate,
    "ExtensionOperator.apply": _count_extension_apply,
}
