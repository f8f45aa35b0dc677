"""Span recording around varlat's public functions, from outside the package.

`Recorder.install` wraps every public function of the layer modules in each module
namespace that binds it, so calls between layers (and within a layer, where
they go through a module global) open a span.  `Recorder.uninstall` puts the
original objects back.  Spans stay in memory; `layer_metrics` turns them into
the per-layer figures the benchmark reports.

Self time splits wall-clock time, never thread time: at each instant the
innermost open spans share it equally.  A span whose thread has no open span
(a task of the CLI's thread pool) is parented to the innermost open span of
the thread that made the recorder, so the pool's parent stops accruing self
time while its tasks run.  The self times of all spans therefore sum to the
wall time of the root spans exactly, with or without threads.
"""
from __future__ import annotations

import functools
import importlib
import math
import sys
import threading
import time

LAYERS = ("cli", "experiments", "operators", "variation", "witnesses", "corefn")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _family_value_matrix_counts(args, kwargs, result):
    points, radii = result.shape
    counts = {"operators.family_value_matrix.evals": points * radii}
    if _arg(args, kwargs, 1, "family").name == "HEAT":
        breakpoints = _arg(args, kwargs, 0, "f").breakpoints_array.size
        counts["operators.heat_erf_terms"] = points * radii * breakpoints
    return counts


def _pairs(m: int) -> int:
    return m * (m - 1) // 2


# Work counts computed at the layer boundary from a call's arguments and
# result; each hook returns the increments for one call.
COUNT_HOOKS = {
    "operators.family_value_matrix": _family_value_matrix_counts,
    "operators.gauss_legendre_integrate": lambda a, k, r: {
        "operators.gauss_legendre_integrate.nodes": int(_arg(a, k, 3, "n"))
    },
    "variation.variation_profile": lambda a, k, r: {
        "variation.variation_profile.rows": r.values_array.size
    },
    "variation.prune_to_local_extrema": lambda a, k, r: {
        "variation.prune.raw": len(_arg(a, k, 0, "values")),
        "variation.prune.kept": len(r[1]),
    },
    "variation.qvariation_value": lambda a, k, r: {
        "variation.dp_pairs": _pairs(len(_arg(a, k, 0, "values")))
    },
    "variation.qvariation": lambda a, k, r: {
        "variation.qvariation.n": len(_arg(a, k, 0, "values")),
        "variation.qvariation.dp_pairs": _pairs(len(_arg(a, k, 0, "values"))),
    },
    # |js| x |ys| is the result's shape; each cell sums 2 erf terms per k
    "witnesses.heat_of_g_matrix": lambda a, k, r: {
        "witnesses.heat_of_g_matrix.erf_terms": 2 * r.size * -int(_arg(a, k, 1, "k_min"))
    },
    "corefn.sliding_sup": lambda a, k, r: {"corefn.sliding_sup.points": r.values_array.size},
    "corefn.make_grid": lambda a, k, r: {"corefn.make_grid.points": r.points_array.size},
}


class Recorder:
    """Spans as [name, start_ns, end_ns, parent index, thread id], plus counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = self._stack()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> tuple[list[int], int]:
        stack = self._stack()
        parent = stack[-1] if stack else (self._home[-1] if self._home else -1)
        span = [name, time.perf_counter_ns(), None, parent, threading.get_ident()]
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return stack, index

    def close(self, handle: tuple[list[int], int]) -> None:
        stack, index = handle
        self.spans[index][2] = time.perf_counter_ns()
        stack.pop()

    def count(self, increments: dict[str, int]) -> None:
        with self._lock:
            for key, value in increments.items():
                self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn):
        hook = COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            handle = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(handle)
            if hook is not None:
                self.count(hook(args, kwargs, result))
            return result

        return traced

    def install(self) -> "Recorder":
        """Wrap the layers' public functions in every varlat namespace binding them."""
        modules = [importlib.import_module(f"varlat.{layer}") for layer in LAYERS]
        targets: dict[int, tuple[str, object]] = {}
        for module in modules:
            targets.update(public_functions(module))
        wrapped = {key: self.wrap(name, obj) for key, (name, obj) in targets.items()}
        namespaces = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "varlat" or key.startswith("varlat."))
        ]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in wrapped and targets[id(obj)][1] is obj:
                    self._restore.append((namespace, attr, obj))
                    setattr(namespace, attr, wrapped[id(obj)])
        return self

    def uninstall(self) -> None:
        """Put every wrapped binding back to its original object."""
        for namespace, attr, original in reversed(self._restore):
            setattr(namespace, attr, original)
        self._restore.clear()


def public_functions(module) -> dict[int, tuple[str, object]]:
    """id -> (span name, object) for the public callables a module defines."""
    layer = module.__name__.rsplit(".", 1)[-1]
    found = {}
    for attr, obj in vars(module).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            found[id(obj)] = (f"{layer}.{attr}", obj)
    return found


def self_times(spans: list[list]) -> list[float]:
    """Wall-clock self time of each span, in seconds (see the module docstring)."""
    depth = []
    for name, _, _, parent, _ in spans:
        depth.append(depth[parent] + 1 if parent >= 0 else 0)
    events = []
    for i, (_, start, end, _, _) in enumerate(spans):
        events.append((start, 1, depth[i], i))
        events.append((end, 0, -depth[i], i))
    events.sort()
    own = [0.0] * len(spans)
    open_children = [0] * len(spans)
    active = [False] * len(spans)
    leaves: set[int] = set()
    last = None
    for t, is_start, _, i in events:
        if last is not None and leaves and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        last = t
        parent = spans[i][3]
        if is_start:
            active[i] = True
            leaves.add(i)
            if parent >= 0 and active[parent]:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            active[i] = False
            leaves.discard(i)
            if parent >= 0 and active[parent]:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return [ns / 1e9 for ns in own]


def busy_time(intervals: list[tuple[int, int]]) -> float:
    """Length in seconds of the union of [start, end) intervals in ns."""
    total = 0
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
    return total / 1e9


# Busy time (union of call intervals, recursion and overlap counted once) of
# these functions, reported as "<name>.s"; "experiments.exp" gathers every
# exp_* entry point.
BUSY = (
    "cli.emit_svg_loglog",
    "experiments.exp",
    "operators.family_value_matrix",
    "operators.gauss_legendre_integrate",
    "variation.variation_profile",
    "variation.maximal_profile",
    "variation.qvariation_value",
    "variation.qvariation",
    "witnesses.heat_of_g_matrix",
    "witnesses.delta_halving_radius",
    "witnesses.key_estimate_table",
    "corefn.sliding_sup",
    "corefn.sliding_power_sum",
    "corefn.make_grid",
    "corefn.make_profile",
    "corefn.make_vector_field",
    "corefn.bochner_norm",
)
CALLS = ("operators.family_value_matrix", "variation.qvariation_value", "witnesses.heat_of_g_matrix")
COUNTS = (
    "operators.family_value_matrix.evals",
    "operators.heat_erf_terms",
    "operators.gauss_legendre_integrate.nodes",
    "variation.variation_profile.rows",
    "variation.dp_pairs",
    "variation.qvariation.n",
    "variation.qvariation.dp_pairs",
    "witnesses.heat_of_g_matrix.erf_terms",
    "corefn.sliding_sup.points",
    "corefn.make_grid.points",
)


def _busy_key(name: str) -> str:
    if name.startswith("experiments.exp_"):
        return "experiments.exp"
    return name


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-layer figures: self time per module, busy time, calls and counts."""
    spans = recorder.spans
    own = self_times(spans)
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    intervals: dict[str, list[tuple[int, int]]] = {key: [] for key in BUSY}
    calls = dict.fromkeys(CALLS, 0)
    for (name, start, end, parent, _), seconds in zip(spans, own):
        out[name.split(".", 1)[0] + ".self_s"] += seconds
        key = _busy_key(name)
        if key in intervals:
            intervals[key].append((start, end))
        if name in calls:
            calls[name] += 1
    for key, spans_of in intervals.items():
        out[f"{key}.s"] = busy_time(spans_of)
    for name, n in calls.items():
        out[f"{name}.calls"] = n
    for key in COUNTS:
        out[key] = recorder.counts.get(key, 0)
    raw = recorder.counts.get("variation.prune.raw", 0)
    out["variation.prune_kept_ratio"] = recorder.counts.get("variation.prune.kept", 0) / raw if raw else 0.0
    out["trace.wall_s"] = sum((end - start) / 1e9 for _, start, end, parent, _ in spans if parent < 0)
    out["trace.spans"] = len(spans)
    return out


def top_layer(metrics: dict[str, float]) -> str:
    """The layer with the largest self time."""
    return max(LAYERS, key=lambda layer: metrics[f"{layer}.self_s"])


def self_sum_gap(metrics: dict[str, float]) -> float:
    """Relative gap between summed layer self times and the traced wall time."""
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    wall = metrics["trace.wall_s"]
    return abs(total - wall) / wall if wall > 0 else math.inf
