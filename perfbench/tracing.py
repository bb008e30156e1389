"""Span tracer for the traced benchmark run.

The tracer replaces, for the length of one run, the attributes that cmssl
callers look up at call time: module functions such as `cmssl.tensor.conv3d`
(reached by `networks` through `T.`), names imported into callers such as
`pretext.extract_modalities` and `synthgen.encode_video`, and the forward
methods of one ModelBundle and its heads. Each wrapper records a span (name,
start, end, parent, unit id, active component). Spans opened outside a unit
are not recorded, so the benchmark's own correctness checks never show up.

Backward time has no call to wrap, so each graph node created by a traced
tensor op gets its `_backward` closure replaced by a timing wrapper that is
tagged with the op and the component that were active when the node was
created. `uninstall` puts every original attribute back.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from cmssl import codec, pretext, synthgen
from cmssl import tensor as T

# ops reported one by one; every other public tensor op is summed as "other"
TENSOR_OPS = (
    "conv3d", "conv2d", "matmul", "layer_norm", "softmax", "logsumexp", "l2_normalize",
    "leaky_relu", "add", "mul", "scale", "transpose", "reshape", "concat", "tmean", "tsum",
)
OTHER_TENSOR_OPS = (
    "sub", "div", "texp", "tlog", "tsqrt", "relu", "flatten", "dropout", "global_avg_pool",
    "cosine_similarity",
)
COMPONENTS = ("v_net", "i_net", "m_net_pos", "m_net_neg", "transformer", "heads")
LOSSES = ("context_matching_loss", "motion_prediction_loss")
_PRETEXT_TIMED = (
    "sample_training_batch", "draw_sample_indices", "materialize_sample", "augment_frames",
    "augment_mv", "collate",
)

# name -> unit of every per-layer metric; values are per unit of work (a
# video, a step or a batch) except read/decode, which are per set-up
PER_LAYER = {
    "synthgen.generate_video.ms": "ms",
    "codec.encode_video.ms": "ms",
    "codec.encode_video.self_ms": "ms",
    "codec.motion_compensate.ms": "ms",
    "codec.write_cmv1.ms": "ms",
    "codec.cmv1_bytes": "bytes",
    "codec.read_cmv1.ms": "ms",
    "codec.decode_video.ms": "ms",
    "codec.extract_modalities.ms": "ms",
    "codec.extract_modalities.calls": "count",
    **{f"pretext.{f}.ms": "ms" for f in _PRETEXT_TIMED},
    **{f"pretext.{f}.{d}": "ms" for f in LOSSES for d in ("fwd_ms", "bwd_ms")},
    **{f"networks.{c}.{d}": "ms" for c in COMPONENTS for d in ("fwd_ms", "bwd_ms")},
    **{
        f"tensor.{op}.{k}": ("count" if k == "calls" else "ms")
        for op in TENSOR_OPS + ("other",)
        for k in ("fwd_ms", "bwd_ms", "calls")
    },
    "tensor.nodes": "count",
    **{f"step.{p}_ms": "ms" for p in ("sample", "fwd", "bwd", "update")},
    "trace_overhead_frac": "frac",
}

_MISSING = object()


class Span:
    __slots__ = ("name", "start", "end", "parent", "unit", "component")

    def __init__(self, name, start, end, parent, unit, component):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.unit = unit
        self.component = component

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    def as_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


def self_times_ms(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another in a single thread, so their
    durations never overlap and the plain sum is the covered part."""
    out = [s.ms for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.ms
    return out


class NullTracer:
    """The untraced run's tracer: records nothing and patches nothing."""

    @contextmanager
    def unit(self, unit_id):
        yield

    @contextmanager
    def span(self, name):
        yield


class _Backward:
    """Timing stand-in for one graph node's backward closure."""

    __slots__ = ("tracer", "fn", "op", "component")

    def __init__(self, tracer, fn, op, component):
        self.tracer = tracer
        self.fn = fn
        self.op = op
        self.component = component

    def __call__(self, g):
        tr = self.tracer
        start = time.perf_counter()
        self.fn(g)
        end = time.perf_counter()
        if tr.current is not None:
            parent = tr._stack[-1] if tr._stack else None
            tr.spans.append(Span(f"tensor.{self.op}.bwd", start, end, parent, tr.current, self.component))


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.nodes: dict = {}  # unit id -> graph nodes created
        self.current = None  # id of the unit being traced
        self._stack: list[int] = []
        self._components: list[str] = []
        self._in_op = False
        self._m_calls = 0
        self._patches: list = []

    # -- span recording -----------------------------------------------------

    def _open(self, name) -> int | None:
        if self.current is None:
            return None
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        comp = self._components[-1] if self._components else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.current, comp))
        self._stack.append(i)
        return i

    def _close(self, i):
        if i is not None:
            self.spans[i].end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def unit(self, unit_id):
        self.current = unit_id
        self.nodes[unit_id] = 0
        try:
            yield
        finally:
            self.current = None

    @contextmanager
    def span(self, name):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name, fn, component=None):
        def wrapper(*args, **kwargs):
            i = self._open(name)
            if component is not None:
                self._components.append(component)
            try:
                return fn(*args, **kwargs)
            finally:
                if component is not None:
                    self._components.pop()
                self._close(i)

        return wrapper

    def _op(self, name, fn):
        """Time a tensor op called from outside any other tensor op; nested
        calls (l2_normalize's mul, for one) belong to the outer op."""

        def wrapper(*args, **kwargs):
            if self._in_op or self.current is None:
                return fn(*args, **kwargs)
            self._in_op = True
            i = self._open(f"tensor.{name}")
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
                self._in_op = False
            self._tag(out, name, self.spans[i].component)
            return out

        return wrapper

    def _tag(self, out, op, component):
        """Wrap the backward closure of every node this op call created.

        Walking up from the output stops at leaves and at nodes already
        wrapped, which are exactly the nodes that existed before the call."""
        todo = [out]
        while todo:
            node = todo.pop()
            bw = getattr(node, "_backward", None)
            if bw is None or isinstance(bw, _Backward):
                continue
            node._backward = _Backward(self, bw, op, component)
            self.nodes[self.current] += 1
            todo.extend(node._parents)

    def _m_forward(self, fn):
        # pretext_forward runs m_net on the positives first, then on the hard
        # negatives; _pretext_forward resets the count
        pos = self._timed("networks.m_net_pos", fn, "m_net_pos")
        neg = self._timed("networks.m_net_neg", fn, "m_net_neg")

        def wrapper(*args, **kwargs):
            self._m_calls += 1
            return (pos if self._m_calls == 1 else neg)(*args, **kwargs)

        return wrapper

    def _pretext_forward(self, fn):
        timed = self._timed("pretext.pretext_forward", fn)

        def wrapper(*args, **kwargs):
            self._m_calls = 0
            return timed(*args, **kwargs)

        return wrapper

    # -- install / uninstall ----------------------------------------------------

    def _patch(self, obj, attr, wrapper):
        self._patches.append((obj, attr, vars(obj).get(attr, _MISSING)))
        setattr(obj, attr, wrapper)

    def install_modules(self):
        for op in TENSOR_OPS + OTHER_TENSOR_OPS:
            self._patch(T, op, self._op(op, getattr(T, op)))
        self._patch(codec, "motion_compensate", self._timed("codec.motion_compensate", codec.motion_compensate))
        for attr, name in (
            ("generate_video", "synthgen.generate_video"),
            ("encode_video", "codec.encode_video"),
            ("write_cmv1", "codec.write_cmv1"),
        ):
            self._patch(synthgen, attr, self._timed(name, getattr(synthgen, attr)))
        for attr in ("read_cmv1", "decode_video", "extract_modalities"):
            self._patch(pretext, attr, self._timed(f"codec.{attr}", getattr(pretext, attr)))
        for attr in _PRETEXT_TIMED:
            self._patch(pretext, attr, self._timed(f"pretext.{attr}", getattr(pretext, attr)))
        for attr in LOSSES:
            self._patch(pretext, attr, self._timed(f"pretext.{attr}", getattr(pretext, attr), attr))
        self._patch(pretext, "pretext_forward", self._pretext_forward(pretext.pretext_forward))

    def install_bundle(self, bundle):
        for attr, comp in (("v_forward", "v_net"), ("i_forward", "i_net"), ("transformer_predict", "transformer")):
            self._patch(bundle, attr, self._timed(f"networks.{comp}", getattr(bundle, attr), comp))
        self._patch(bundle, "m_forward", self._m_forward(bundle.m_forward))
        for head, attr in (
            (bundle.g_v, "forward"), (bundle.g_i, "forward"),
            (bundle.g_m1, "forward_points"), (bundle.g_m2, "forward_points"),
        ):
            self._patch(head, attr, self._timed("networks.heads", getattr(head, attr), "heads"))

    def uninstall(self):
        for obj, attr, old in reversed(self._patches):
            if old is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)
        self._patches.clear()

    # -- per-layer metrics ---------------------------------------------------------

    def layer_metrics(self, units, work: int, setups, extra: dict) -> dict:
        """Every PER_LAYER metric, per unit of work.

        `units` and `setups` are the ids of the traced work units and
        set-ups, `work` the videos, steps or batches those units did, and
        `extra` the values the workload measured itself."""
        units, setups = set(units), set(setups)
        total: dict[str, float] = {}
        for s, self_ms in zip(self.spans, self_times_ms(self.spans)):
            if s.unit in setups and s.name in ("codec.read_cmv1", "codec.decode_video"):
                key = f"{s.name}.ms"
                total[key] = total.get(key, 0.0) + s.ms / max(len(setups), 1)
            elif s.unit in units:
                for key, value in _metric_parts(s, self_ms):
                    total[key] = total.get(key, 0.0) + value / max(work, 1)
        total["tensor.nodes"] = sum(self.nodes.get(u, 0) for u in units) / max(work, 1)
        total.update(extra)
        return {m: float(total.get(m, 0.0)) for m in PER_LAYER}


def _metric_parts(s: Span, self_ms: float):
    """(metric, amount) pairs one span adds to, before dividing by the work."""
    head, _, rest = s.name.partition(".")
    if head == "tensor":
        op, _, kind = rest.partition(".")
        op = op if op in TENSOR_OPS else "other"
        if kind == "bwd":
            yield f"tensor.{op}.bwd_ms", s.ms
            if s.component in COMPONENTS:
                yield f"networks.{s.component}.bwd_ms", s.ms
            elif s.component in LOSSES:
                yield f"pretext.{s.component}.bwd_ms", s.ms
        else:
            yield f"tensor.{op}.fwd_ms", s.ms
            yield f"tensor.{op}.calls", 1
    elif head == "networks" or rest in LOSSES:
        yield f"{s.name}.fwd_ms", s.ms
    elif head == "step":
        yield f"{s.name}_ms", s.ms
    else:
        yield f"{s.name}.ms", s.ms
        if s.name == "codec.extract_modalities":
            yield f"{s.name}.calls", 1
        elif s.name == "codec.encode_video":
            yield f"{s.name}.self_ms", self_ms
