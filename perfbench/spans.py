"""Spans around the calls into the lamkit layers, recorded from outside the package.

A layer is one module of the package (``LAYERS``).  While a ``Tracer`` is
active, every public function of a layer module (and every public classmethod
of a class defined there) is replaced, in every ``lamkit`` namespace that
refers to it, by a wrapper that records one span per call *into* the layer:
a call from the benchmark (``run.py``) or from another layer.  Calls a layer makes
to its own public functions record nothing, so a span's self time (its
duration minus its child spans) is the time spent inside that layer.

Spans are kept in memory as tuples and written out once, when the run ends.
The originals are put back when the ``active`` block exits, so untraced
operations run the unmodified package.
"""

from contextlib import contextmanager
import functools
import inspect
import math
import statistics
import sys
import time

LAYERS = (
    "flat_surface",
    "curves",
    "affine",
    "traintrack",
    "dynamics",
    "obstruction",
    "amalgam",
    "cli",
)

SPAN_FIELDS = ("id", "parent", "op", "layer", "name", "detail", "start", "end", "failed")


def _decomposition_detail(surface, direction):
    return [direction, surface.genus, surface.precision]


# Extra detail kept for a few entry points: the request key of a decomposition.
_DETAIL = {"flat_surface.cylinder_decomposition": _decomposition_detail}

# Entry points whose layer self time is reported under a named metric.
# ``cylinder_decomposition`` is split by direction (the first detail field).
FUNCTION_METRICS = {
    "flat_surface.build_double_polygon": "flat_surface.build_s",
    "flat_surface.cylinder_decomposition:horizontal": "flat_surface.decompose_h_s",
    "flat_surface.cylinder_decomposition:vertical": "flat_surface.decompose_v_s",
    "flat_surface.hyperelliptic_symmetry": "flat_surface.symmetry_s",
    "flat_surface.surface_to_json": "flat_surface.json_s",
    "flat_surface.surface_from_json": "flat_surface.json_s",
    "curves.derive_intersection_matrix": "curves.crossings_s",
    "affine.generators": "affine.generators_s",
    "affine.parabolic_generator": "affine.generators_s",
    "affine.twist_derivative": "affine.generators_s",
    "affine.evaluate_word": "affine.word_eval_s",
    "affine.classify": "affine.classify_s",
    "traintrack.TrackWeights.from_json_dict": "traintrack.weights_s",
    "traintrack.curve_class": "traintrack.weights_s",
    "traintrack.multitwist_step": "traintrack.weights_s",
    "traintrack.rationalize": "traintrack.weights_s",
    "traintrack.intersection_with_component": "traintrack.weights_s",
    "dynamics.iterate_trace": "dynamics.iterate_s",
    "dynamics.twist_limit": "dynamics.limit_s",
    "dynamics.decay_fit": "dynamics.decay_fit_s",
    "dynamics.circle_samples": "dynamics.circle_s",
    "dynamics.direction_foliation": "dynamics.circle_s",
    "dynamics.foliation_entries": "dynamics.circle_s",
    "obstruction.vertical_heights": "obstruction.heights_s",
    "obstruction.contradiction_witness": "obstruction.witness_s",
    "obstruction.in_ratio_locus": "obstruction.witness_s",
    "obstruction.genericity_sample": "obstruction.genericity_s",
    "amalgam.parse_word": "amalgam.parse_s",
    "amalgam.britton_reduce": "amalgam.reduce_s",
    "amalgam.classify_element": "amalgam.classify_s",
    "cli.main": "cli.main_s",
}


class Tracer:
    """Records spans for calls into the layers of an imported ``lamkit`` package."""

    def __init__(self, package):
        self.spans = []
        self.op = 0
        self._stack = []  # (span id, layer) of the open spans
        self._next_id = 1
        self._patches = self._find_patches(package)

    def _wrap(self, layer, name, fn):
        detail_of = _DETAIL.get(f"{layer}.{name}")
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append((span_id, layer))
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                detail = detail_of(*args, **kwargs) if detail_of else None
                self.spans.append(
                    (span_id, parent, self.op, layer, name, detail, start, end, failed)
                )

        return traced

    def _find_patches(self, package):
        """(owner, attribute, original, replacement) for every reference to wrap."""
        wrapped = {}
        patches = []
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(layer, name, obj)
                elif inspect.isclass(obj):
                    for attr, member in vars(obj).items():
                        if isinstance(member, classmethod) and not attr.startswith("_"):
                            replacement = self._wrap(layer, f"{name}.{attr}", member.__func__)
                            patches.append((obj, attr, member, classmethod(replacement)))
        prefix = package.__name__ + "."
        for module_name, module in list(sys.modules.items()):
            if module_name != package.__name__ and not module_name.startswith(prefix):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    patches.append((module, name, obj, wrapped[obj]))
        return patches

    @contextmanager
    def active(self, op):
        """Trace the calls made inside the block, attributing them to operation ``op``."""
        self.op = op
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)


def _span_key(span):
    name = f"{span[3]}.{span[4]}"
    if span[5] is not None:
        name += f":{span[5][0]}"
    return name


def layer_metrics(spans, timed_ops):
    """Per-layer calls, self time and failures, plus the named entry-point times.

    Only spans of the operations in ``timed_ops`` (an op id -> genus mapping;
    genus may be None) count toward times and calls; earlier spans, such as
    those of set-up, still count as earlier decomposition requests.
    """
    child_time = {}
    for span in spans:
        if span[1] is not None:
            child_time[span[1]] = child_time.get(span[1], 0.0) + span[7] - span[6]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = 0
        metrics[f"{layer}.busy_s"] = 0.0
        metrics[f"{layer}.errors"] = 0
    for name in set(FUNCTION_METRICS.values()):
        metrics[name] = 0.0
    vertical_by_op = {}
    for span in spans:
        if span[2] not in timed_ops:
            continue
        layer = span[3]
        self_time = span[7] - span[6] - child_time.get(span[0], 0.0)
        metrics[f"{layer}.calls"] += 1
        metrics[f"{layer}.busy_s"] += self_time
        metrics[f"{layer}.errors"] += int(span[8])
        key = _span_key(span)
        if key in FUNCTION_METRICS:
            metrics[FUNCTION_METRICS[key]] += self_time
        if key == "flat_surface.cylinder_decomposition:vertical":
            vertical_by_op[span[2]] = vertical_by_op.get(span[2], 0.0) + self_time
    metrics["flat_surface.decompose_repeat_share"] = repeat_share(spans, timed_ops)
    metrics["flat_surface.decompose_v_exponent"] = scaling_exponent(
        [(timed_ops[op], t) for op, t in vertical_by_op.items() if timed_ops[op]]
    )
    return metrics


def repeat_share(spans, timed_ops):
    """Share of the decompositions a timed operation requests that an earlier
    operation (or set-up) already requested.

    A request is a (direction, genus, precision) key; repeats inside one
    operation are counted once, so the share measures reuse across
    operations, which is what a decomposition cache can exploit.
    """
    per_op = {}
    for span in spans:
        if span[5] is not None:
            per_op.setdefault(span[2], set()).add(tuple(span[5]))
    seen = set()
    requested = repeated = 0
    for op in sorted(per_op):
        keys = per_op[op]
        if op in timed_ops:
            requested += len(keys)
            repeated += len(keys & seen)
        seen |= keys
    return repeated / requested if requested else 0.0


def scaling_exponent(points):
    """Least-squares slope of log(median time) against log(genus).

    ``points`` are (genus, seconds) pairs; 0.0 when fewer than two genera
    have a positive time.
    """
    by_genus = {}
    for genus, seconds in points:
        by_genus.setdefault(genus, []).append(seconds)
    xs, ys = [], []
    for genus, times in sorted(by_genus.items()):
        median = statistics.median(times)
        if median > 0:
            xs.append(math.log(genus))
            ys.append(math.log(median))
    if len(xs) < 2:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
