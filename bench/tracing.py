"""Outside-in layer tracing for the benchmark.

The tracer wraps public functions of the measured layer modules from the
outside: nothing under ``src/`` is edited.  Each wrapped call records one span
(index, name, parent span, start, end, clip id) into a flat in-memory array;
self times and call counts are derived from it once, after the run.

A function can be bound in several modules (``from .nn import conv_backward``
gives ``mvcodec.restorer`` its own name for it), so every ``mvcodec.*``
module attribute that *is* the original object gets patched, not just the
one in the defining module.  ``BitWriter.write_ue`` and ``BitReader.read_ue``
are patched on their classes.  :meth:`Tracer.uninstall` puts every original
object back.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (metric prefix, defining module, attribute).  The prefix names the layer
# module and the public function; ``alignment.deformable_gather`` wraps the
# cached variant because that is the one the restorer calls.
FUNCTIONS = (
    ("codec.motion_search", "mvcodec.codec", "motion_search"),
    ("codec.encode_sequence", "mvcodec.codec", "encode_sequence"),
    ("codec.decode_sequence", "mvcodec.codec", "decode_sequence"),
    ("transform.dct2d", "mvcodec.transform", "dct2d"),
    ("transform.quantize", "mvcodec.transform", "quantize"),
    ("transform.idct2d", "mvcodec.transform", "idct2d"),
    ("transform.dequantize", "mvcodec.transform", "dequantize"),
    ("transform.coeff_bounds", "mvcodec.transform", "coeff_bounds"),
    ("backproject.back_project_frame", "mvcodec.backproject", "back_project_frame"),
    ("alignment.deformable_gather", "mvcodec.alignment", "deformable_gather_cached"),
    ("alignment.deformable_gather_backward", "mvcodec.alignment", "deformable_gather_backward"),
    ("alignment.warp_mv", "mvcodec.alignment", "warp_mv"),
    ("alignment.warp_mv_backward", "mvcodec.alignment", "warp_mv_backward"),
    ("alignment.rasterize_motion", "mvcodec.alignment", "rasterize_motion"),
    ("nn.conv_forward", "mvcodec.nn", "conv_forward_cached"),
    ("nn.conv_backward", "mvcodec.nn", "conv_backward"),
    ("nn.adam_step", "mvcodec.nn", "adam_step"),
    ("restorer.restore_sequence", "mvcodec.restorer", "restore_sequence"),
    ("restorer.restorer_forward_cached", "mvcodec.restorer", "restorer_forward_cached"),
    ("restorer.restorer_backward", "mvcodec.restorer", "restorer_backward"),
    ("restorer.build_aux_planes", "mvcodec.restorer", "build_aux_planes"),
    ("restorer.train_restorer", "mvcodec.restorer", "train_restorer"),
)

# (metric prefix, defining module, class, method)
METHODS = (
    ("bitio.BitWriter.write_ue", "mvcodec.bitio", "BitWriter", "write_ue"),
    ("bitio.BitReader.read_ue", "mvcodec.bitio", "BitReader", "read_ue"),
)

# conv spans are named per weight shape (out x in x k); these are the shapes
# of the default restorer model
CONV_SHAPES = (
    "8x1x3", "8x18x3", "18x8x3", "8x40x3", "8x8x3",
    "8x3x3", "8x2x3", "1x16x7", "8x24x3", "1x8x3",
)

# counts measured outside every span: (metric, unit)
COUNTERS = (
    ("bitio.stream_bytes", "count"),
    ("backproject.coeffs_clamped", "count"),
    ("backproject.coeffs_total", "count"),
    ("nn.conv_forward.col_mb", "MB_computed"),
)
OVERHEAD_METRIC = ("trace.overhead_pct", "%")


def span_names() -> list[str]:
    """Every span name the benchmark reports, in report order."""
    names = []
    for prefix, _, _ in FUNCTIONS:
        if prefix in ("nn.conv_forward", "nn.conv_backward"):
            names.extend(f"{prefix}.{shape}" for shape in CONV_SHAPES)
        else:
            names.append(prefix)
    names.extend(prefix for prefix, _, _, _ in METHODS)
    return names


def per_layer_metrics() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    out = []
    for name in span_names():
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
    out.extend(COUNTERS)
    out.append(OVERHEAD_METRIC)
    return out


def _conv_shape(layer) -> str:
    out_ch, in_ch, k, _ = layer.weights.shape
    return f"{out_ch}x{in_ch}x{k}"


# fields of one span record
SPAN_FIELDS = ("index", "name", "parent", "start", "end", "clip")


class Tracer:
    """Records spans of wrapped layer functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row of SPAN_FIELDS per finished span, in the order spans end;
        # a flat float array keeps the hot path to one extend call
        self._records = array("d")
        self._open = [-1]  # indices of the open spans; -1 is "no parent"
        self._counter = itertools.count()
        self.clip = -1
        self.col_bytes = 0
        # (args, kwargs) of every back projection, for counting its clamps later
        self.projections: list[tuple] = []
        # (owner, attribute, original object) of every active patch
        self.patches: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, nid: int = -1, name_of=None):
        """Wrapper that records a span around ``fn``.

        The span is named ``nid``, or ``name_of(args, kwargs)`` when given.
        """
        open_spans = self._open
        counter = self._counter
        extend = self._records.extend
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = nid if name_of is None else name_of(args, kwargs)
            idx = next(counter)
            parent = open_spans[-1]
            open_spans.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_spans.pop()
                extend((idx, name, parent, t0, t1, tracer.clip))

        return wrapper

    def _wrapper_for(self, prefix: str, fn):
        if prefix in ("nn.conv_forward", "nn.conv_backward"):
            ids: dict[tuple, int] = {}

            def name_of(args, kwargs):
                layer = args[0] if args else kwargs["layer"]
                shape = layer.weights.shape
                nid = ids.get(shape)
                if nid is None:
                    nid = ids[shape] = self._name_id(f"{prefix}.{_conv_shape(layer)}")
                if prefix == "nn.conv_forward":
                    x = args[1] if len(args) > 1 else kwargs["x"]
                    # im2col columns: (in * k * k) x (h * w) float64
                    self.col_bytes += shape[1] * shape[2] * shape[3] * x.shape[1] * x.shape[2] * 8
                return nid

            return self._wrap(fn, name_of=name_of)

        nid = self._name_id(prefix)
        if prefix == "backproject.back_project_frame":
            projections = self.projections

            def name_of(args, kwargs):
                projections.append((args, kwargs))
                return nid

            return self._wrap(fn, name_of=name_of)
        return self._wrap(fn, nid)

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Patch every binding of every traced function and method."""
        if self.patches:
            raise RuntimeError("tracer is already installed")
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "mvcodec" or key.startswith("mvcodec."))
        ]
        try:
            for prefix, module_name, attr in FUNCTIONS:
                original = getattr(sys.modules[module_name], attr)
                wrapper = self._wrapper_for(prefix, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
            for prefix, module_name, cls_name, method in METHODS:
                cls = getattr(sys.modules[module_name], cls_name)
                self._patch(cls, method, self._wrapper_for(prefix, vars(cls)[method]))
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr: str, wrapper) -> None:
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every patched attribute back to its original object."""
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """Every recorded span, one array per field of SPAN_FIELDS, by index."""
        # np.array copies, so the record array stays free to grow afterwards
        rows = np.array(self._records).reshape(-1, len(SPAN_FIELDS))
        rows = rows[np.argsort(rows[:, 0])]
        out = {field: rows[:, i] for i, field in enumerate(SPAN_FIELDS)}
        for field in ("index", "name", "parent", "clip"):
            out[field] = out[field].astype(np.int64)
        return out

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over every span recorded so far.

        Self time is a span's duration minus the durations of its direct
        children, which are the wrapped calls made inside it; it includes the
        wrapper cost of those children.
        """
        spans = self.spans()
        nspans = len(spans["index"])
        if nspans == 0:
            return {}
        dur = spans["end"] - spans["start"]
        parent, name = spans["parent"], spans["name"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=nspans)
        count = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=dur - child, minlength=len(self.names))
        return {n: (int(count[i]), float(self_s[i])) for i, n in enumerate(self.names)}

    def write_spans(self, path: Path, workload: str, seed: int, clip_labels: list[str]) -> None:
        """Write every recorded span to one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            workload=np.array(workload),
            seed=np.array(seed),
            names=np.array(self.names, dtype=str),
            clips=np.array(clip_labels, dtype=str),
            **self.spans(),
        )
