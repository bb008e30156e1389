"""Dense float32 or float64 tensors with reverse-mode automatic differentiation.

Every value flowing through the networks and losses is a Tensor wrapping a
numpy array. Ops build a DAG of closures; Tensor.backward() runs them in
reverse creation order, which is a reverse topological order, summing the
gradients each node receives.

Dtypes: a Tensor keeps a float32 or float64 array as it is and turns any
other input (ints, bools, float16, Python numbers, lists) into float64. An op
computes in numpy's promotion of its operands' dtypes, so float32 in gives
float32 out and float32 gradients, and a float32/float64 mix computes in
float64. A Python-number operand (`add(x, eps)`) takes its partner's dtype
and never promotes it. A leaf's gradient buffer has the leaf's own dtype.
The model picks float32 through ModelBundle; the finite-difference checks
and numpy oracles in the tests run in float64.

The graph is made of nodes, not of Tensors. A Tensor's `_Node` holds its
gradient, its backward closure, its parents' nodes, and its op, shape and
dtype, but not its data. An op's closure holds its parents' nodes and
exactly the arrays its backward reads (matmul, mul and div inputs; softmax,
exp, sqrt, relu and leaky_relu outputs; layer_norm's xhat; a conv's unpadded
input, kept only when its kernels take a gradient, and its kernels, kept
only when its input takes one; dropout's mask), never a Tensor. So once the caller drops an intermediate
Tensor its array is freed unless some backward reads it: a conv or
layer_norm output dies with its Tensor. The convs' im2col patch matrices
would be the largest arrays of a step and are cheap to rebuild, so the
forward frees each after its GEMM and the kernel gradient rebuilds it, bit
for bit, from the held input: memory traded for time, as in gradient
checkpointing. Neither pass builds a conv's whole patch matrix at once: the
batch runs in the fewest chunks of samples, as equal as possible, whose
patch matrices each fit _PATCH_CHUNK_BYTES (4 MiB; one sample at least), one
GEMM per chunk. The forward writes each chunk's rows of one output and is
bit-identical to a single GEMM; the kernel gradient sums the chunks'
products in chunk order, which only reorders its rounding.

Conv layout: a stage indexes every array it makes as (B*N, channels), one
row per sample and output position, and picks the memory layout from its
input's channel count. Every pass multiplies by one kernel matrix, (K, cout)
with K = prod(ksp)*cin running over (*ksp, cin), and the patch matrices'
columns run in that order; numpy orients each GEMM by the memory order of
its operands and output. A stage that reads at least _CHANNELS_LAST_MIN_CIN
(8) channels, every stage after the three stems, runs channels-last: it pads
each chunk of samples into a buffer laid out (n, *spatial, cin), so a patch
row is prod(ksp[:-1]) runs of ksp[-1]*cin values that lie contiguous there,
multiplies the C-order (n*N, K) patches by the kernel matrix and normalizes
each output row over its last, contiguous axis. The stems read 2 or 3
channels, and channels-last their runs would be 6 or 9 values long, so they
pad into channel-first memory, copy the patches as a C-order (K, n*N)
array, whose rows are runs of output positions, and keep a channel-major
output. Gather times of the whole batch in float32 on 2 cores, channel-first
against channels-last, each input in the layout its stage gets it in:
v_net conv1 (16 -> 32 channels, 16 clips) 10.0 against 8.6 ms and conv2
2.4 against 1.1 ms, m_net conv2 at 24 clips 2.0 against 0.35 ms, but v_net
conv0 (3 channels) 1.7 against 3.3 ms and m_net conv0 (2 channels) 1.3
against 2.4 ms. Each stage returns the (B, cout, *spatial) view of its
output's memory, and writes its input gradient with its axes in memory in
the order of its input's.

Every conv is a conv stage of the networks (conv -> layer norm over
channels -> leaky relu), one node: conv3d/conv2d normalize, scale, shift
and, when leaky, rectify their output in place, in tiles of samples of at
most _EPILOGUE_TILE_BYTES (512 KiB) that stay in a core's L2 cache through
those passes. The tests' oracle is the one-GEMM conv in the stage's
layout, then _normalize over channels, gamma, beta and _leaky, bit for
bit. A stage holds, besides its input and kernels, the normalized output
xhat and 1/sigma, and a leaky stage its own output, whose sign gives the
slope of each cell (the next conv holds that output as its input anyway);
a stage that ends linear lets its output die with its Tensor. Under
no_grad it keeps nothing. Its backward turns the upstream gradient into
the pre-norm gradient tile by tile, summing the gamma and beta gradients
tile by tile.

Who owns a gradient array:
- Leaves (tensors not made by an op) own their .grad buffer and accumulate
  into it in place. Parameters created with requires_grad=True start with a
  zero buffer, so an unused parameter reads back an all-zero gradient rather
  than None, and repeated backward() calls add up.
- Non-leaf nodes adopt the first gradient array they receive without
  copying; a sibling may hold the same array, so later contributions are
  added out of place. Closures therefore never write into the gradient they
  are given.
- backward() takes a non-leaf node's gradient off the node as it passes it
  to the closure, so after backward() only leaves hold gradients, and a
  closure can free its gradient before it returns: a conv stage does, once
  its tiles have turned it into the pre-norm gradient.
- backward() consumes the graph: once a node's closure has run, the closure
  is replaced by a spent marker and the node's parent links are dropped, so
  the arrays it read are freed during the walk, not when the loss is
  dropped. A second backward() that reaches a consumed node, from the same
  loss or from any loss that shares a node with it, raises RuntimeError
  before any gradient is touched.

Memory between steps: a training step allocates its activations and
gradients and frees them as backward() walks the graph. By tracemalloc, a
B=8 forward of the default float32 model leaves 33.8 MiB live, the peak of
its backward is 37.2 MiB, and 1.1 MiB stays live after it while the
forward's outputs are still held (72.8, 79.7 and 2.1 MiB at float64). The
backward's peak holds one chunk of a rebuilt patch matrix; rebuilding each
whole peaked at 40.6 MiB, and holding every patch matrix from the forward
left 70.7 MiB live and peaked at 72.7 MiB. A no_grad v_net forward peaks at
9.8, 14.8 and 24.8 MiB for 8, 16 and 32 clips (12.8, 25.5 and 51.0 MiB with
each stage's layer norm and leaky relu as ops of their own, and 23.1, 46.3
and 92.6 MiB with whole patch matrices).
The walk frees the forward's arrays newest first, the reverse of the order
they were allocated in, so the heap unwinds much like a stack and the next
step's forward finds the same free space again. A walk in depth-first order
from the loss left small live blocks scattered through that space, and a
warmed-up step then faulted up to ≈1000 fresh pages as the heap grew around
them. By default glibc hands the freed heap top back to the OS and unmaps
every array above its mmap threshold, so each step would fault the same
amount of fresh, zeroed pages in again (≈12k minor faults per float64 B=8
step, measured when a step held ≈248 MiB). Importing this module therefore
tells glibc malloc, once, never to trim the heap and never to serve a
request by mmap; the heap then grows to the largest step and stays mapped,
and a warmed-up step faults a few pages at most. Where the C library has no
mallopt this is skipped; no array op depends on it.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools

import numpy as np

_GRAD_ENABLED = True

# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_MAX = -4

# fixed op constants; Python floats, so a float32 input stays float32
LEAKY_RELU_SLOPE = 0.01
LAYER_NORM_EPS = 1e-5
L2_NORMALIZE_EPS = 1e-8


def _keep_heap_mapped():
    """Stop glibc from trimming the heap and from serving requests by mmap."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library handle
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # -1 disables trimming: the ≈39 MiB a float32 B=8 step frees stays mapped
    # for the next step. Setting it also stops glibc from raising its 128 KiB
    # mmap threshold, and the largest arrays are past that: v_net's first
    # conv output, and the xhat that its node keeps and the gradients of
    # that shape that its backward makes, are 4 MiB at 8 clips and 16 MiB at
    # 32. A fixed threshold is capped at 32 MiB, too small from 64 clips on;
    # with no mmap at all every array comes from the kept heap, at any batch
    # size.
    mallopt(_M_MMAP_MAX, 0)
    mallopt(_M_TRIM_THRESHOLD, -1)


_keep_heap_mapped()


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (evaluation paths)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


# numbers nodes in creation order; a node is always created after its parents
_node_seq = itertools.count()


class _Node:
    """A tensor's place in the autograd graph: its gradient, its backward
    closure and its parents' nodes, with the op, shape and dtype of its value
    but not the value itself, and its creation number `seq`."""

    __slots__ = ("grad", "_backward", "_parents", "op", "shape", "dtype", "seq")

    def __init__(self, grad, parents, op, shape, dtype):
        self.seq = next(_node_seq)
        self.grad = grad
        self._backward = None
        self._parents = parents
        self.op = op
        self.shape = shape
        self.dtype = dtype

    def _accum(self, g: np.ndarray):
        if self._backward is None:  # a leaf: its own buffer, in place
            if self.grad is None:
                self.grad = np.array(np.broadcast_to(g, self.shape), dtype=self.dtype)
            else:
                self.grad += g
        elif self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g


class Tensor:
    __slots__ = ("data", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False, _parents=(), op: str = "leaf"):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.requires_grad = requires_grad
        grad = np.zeros_like(self.data) if (requires_grad and op == "leaf") else None
        self._node = _Node(grad, _parents, op, self.data.shape, self.data.dtype)

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def op(self) -> str:
        return self._node.op

    @property
    def grad(self):
        return self._node.grad

    @grad.setter
    def grad(self, g):
        self._node.grad = g

    # the graph's attributes, read and rewrapped by callers that walk it

    @property
    def _backward(self):
        return self._node._backward

    @_backward.setter
    def _backward(self, fn):
        self._node._backward = fn

    @property
    def _parents(self):
        return self._node._parents

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0
        elif self.requires_grad:
            self.grad = np.zeros_like(self.data)

    # -- graph mechanics ----------------------------------------------------

    def backward(self):
        """Populate .grad of everything this scalar depends on, consuming the graph.

        Closures run in reverse creation order, which runs each one before
        its parents' closures and frees the forward's arrays in the reverse of
        the order they were allocated in. Once a node's closure has run, or no
        gradient reached the node, the closure is replaced by a spent marker
        and the node's parent links are dropped, so the arrays the closure
        read are freed during the walk. Leaves and their .grad buffers are
        kept. A later backward() that reaches a consumed node raises
        RuntimeError before any gradient is touched."""
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar loss, got shape {self.data.shape}")
        nodes = _graph_in_creation_order(self._node)
        self._node._accum(np.ones_like(self.data))
        # popping drops each node from the list, the last reference a node
        # has once its consumers are spent and its tensor is gone
        while nodes:
            node = nodes.pop()
            if node._backward is None:  # a leaf
                continue
            if node.grad is not None:
                node._backward(_take_grad(node))
            node._backward = _spent
            node._parents = ()


def _take_grad(node: _Node) -> np.ndarray:
    """node's gradient, set to None on the node, for its closure to own."""
    g, node.grad = node.grad, None
    return g


def _spent(g):
    """The closure of a node that a backward pass has consumed."""
    raise RuntimeError("the graph has already been used by a backward pass")


def _graph_in_creation_order(root: _Node) -> list[_Node]:
    """Every node root depends on, root included, oldest first; raises
    RuntimeError if a backward pass has consumed any of them."""
    nodes, todo, seen = [], [root], {id(root)}
    while todo:
        node = todo.pop()
        if node._backward is _spent:
            raise RuntimeError(
                f"backward() reached a {node.op} node: the graph has already been used by a backward pass"
            )
        nodes.append(node)
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    nodes.sort(key=lambda n: n.seq)
    return nodes


def _as_tensor(x, like=None) -> Tensor:
    """x as a Tensor; a Python scalar paired with the Tensor `like` takes its
    dtype, so that `add(x, eps)` keeps a float32 x in float32."""
    if isinstance(x, Tensor):
        return x
    if isinstance(like, Tensor) and isinstance(x, (int, float)):
        return Tensor(np.asarray(x, dtype=like.data.dtype))
    return Tensor(x)


def _grad_node(t: Tensor) -> _Node | None:
    """The node a closure accumulates t's gradient into; None when t takes none."""
    return t._node if t.requires_grad else None


def _make(data: np.ndarray, parents: tuple, op: str, backward) -> Tensor:
    """Create an op output; register the closure only when grads can flow,
    so a one-input op's closure always has its input's node."""
    req = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=req, _parents=tuple(p._node for p in parents) if req else (), op=op)
    if req:
        out._node._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape` (adjoint of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- elementwise ops (numpy broadcasting allowed) ----------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    na, nb = _grad_node(a), _grad_node(b)

    def backward(g):
        if na is not None:
            na._accum(_unbroadcast(g, na.shape))
        if nb is not None:
            nb._accum(_unbroadcast(g, nb.shape))

    return _make(a.data + b.data, (a, b), "add", backward)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    na, nb = _grad_node(a), _grad_node(b)

    def backward(g):
        if na is not None:
            na._accum(_unbroadcast(g, na.shape))
        if nb is not None:
            nb._accum(_unbroadcast(-g, nb.shape))

    return _make(a.data - b.data, (a, b), "sub", backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    na, nb = _grad_node(a), _grad_node(b)
    # each input's gradient reads the other input
    ad = a.data if nb is not None else None
    bd = b.data if na is not None else None

    def backward(g):
        if na is not None:
            na._accum(_unbroadcast(g * bd, na.shape))
        if nb is not None:
            nb._accum(_unbroadcast(g * ad, nb.shape))

    return _make(a.data * b.data, (a, b), "mul", backward)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    na, nb = _grad_node(a), _grad_node(b)
    # a's gradient reads b, and b's reads both
    ad = a.data if nb is not None else None
    bd = b.data

    def backward(g):
        if na is not None:
            na._accum(_unbroadcast(g / bd, na.shape))
        if nb is not None:
            nb._accum(_unbroadcast(-g * ad / (bd * bd), nb.shape))

    return _make(a.data / b.data, (a, b), "div", backward)


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    na = _grad_node(a)
    c = float(c)

    def backward(g):
        na._accum(g * c)

    return _make(a.data * c, (a,), "scale", backward)


def texp(a) -> Tensor:
    a = _as_tensor(a)
    na = _grad_node(a)
    data = np.exp(a.data)

    def backward(g):
        na._accum(g * data)

    return _make(data, (a,), "exp", backward)


def tlog(a) -> Tensor:
    a = _as_tensor(a)
    na, ad = _grad_node(a), a.data

    def backward(g):
        na._accum(g / ad)

    return _make(np.log(ad), (a,), "log", backward)


def tsqrt(a) -> Tensor:
    a = _as_tensor(a)
    na = _grad_node(a)
    data = np.sqrt(a.data)

    def backward(g):
        na._accum(g * 0.5 / data)

    return _make(data, (a,), "sqrt", backward)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    na = _grad_node(a)
    data = np.maximum(a.data, 0.0)

    def backward(g):
        na._accum(g * (data > 0))

    return _make(data, (a,), "relu", backward)


def _leaky(x: np.ndarray, out=None) -> np.ndarray:
    """Leaky relu of x, computed as max(x, slope * x), which is x where x > 0
    and LEAKY_RELU_SLOPE * x elsewhere because 0 <= slope <= 1; written into
    `out` when given, which may be x itself."""
    y = x * LEAKY_RELU_SLOPE
    return np.maximum(y, x, out=y if out is None else out)


def _leaky_grad(y: np.ndarray, g: np.ndarray, dtype) -> np.ndarray:
    """g times the slope of the leaky relu whose output is y: 1 where y > 0,
    LEAKY_RELU_SLOPE elsewhere. The slope being positive, y has the sign of
    the input, so a leaky relu's backward reads only its output."""
    f = (y > 0).astype(dtype)
    np.maximum(f, LEAKY_RELU_SLOPE, out=f)
    f *= g
    return f


def leaky_relu(a) -> Tensor:
    """a where a > 0, LEAKY_RELU_SLOPE * a elsewhere."""
    a = _as_tensor(a)
    na = _grad_node(a)
    data = _leaky(a.data)

    def backward(g):
        na._accum(_leaky_grad(data, g, na.dtype))

    return _make(data, (a,), "leaky_relu", backward)


# -- shape ops ----------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    na = _grad_node(a)
    shape = tuple(shape) if not isinstance(shape, int) else (shape,)

    def backward(g):
        na._accum(g.reshape(na.shape))

    return _make(a.data.reshape(shape), (a,), "reshape", backward)


def flatten(a) -> Tensor:
    return reshape(a, (-1,))


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    na = _grad_node(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def backward(g):
        na._accum(np.transpose(g, inv))

    return _make(np.transpose(a.data, axes), (a,), "transpose", backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    nodes = [_grad_node(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        parts = np.split(g, splits, axis=axis)
        for n, p in zip(nodes, parts):
            if n is not None:
                n._accum(p)

    return _make(data, tuple(tensors), "concat", backward)


# -- reductions ---------------------------------------------------------------


def _norm_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(a % ndim for a in axis)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    na = _grad_node(a)
    axes = _norm_axes(axis, a.data.ndim)

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        na._accum(np.broadcast_to(g, na.shape))

    return _make(a.data.sum(axis=axes, keepdims=keepdims), (a,), "sum", backward)


def tmean(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    na = _grad_node(a)
    axes = _norm_axes(axis, a.data.ndim)
    n = int(np.prod([a.data.shape[i] for i in axes]))

    def backward(g):
        na._accum(np.broadcast_to(np.expand_dims(g, axes) / n, na.shape))

    return _make(a.data.mean(axis=axes), (a,), "mean", backward)


# -- linear algebra -------------------------------------------------------------


def matmul(a, b) -> Tensor:
    """a @ b: N-D @ 2-D (trailing-dim contraction), or batched N-D @ N-D whose
    leading dims `shape[:-2]` are equal, as attention's (B, heads, S, dh)."""
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.shape[-1] != bd.shape[-2]:
        raise ValueError(
            f"matmul inner dims differ: {ad.shape} @ {bd.shape} (dim {ad.ndim - 1} vs {bd.ndim - 2})"
        )
    na, nb = _grad_node(a), _grad_node(b)
    # each input's gradient reads the other input
    a_in = ad if nb is not None else None
    b_in = bd if na is not None else None
    if bd.ndim == 2:
        data = ad @ bd

        def backward(g):
            if na is not None:
                na._accum(g @ b_in.T)
            if nb is not None:
                gb = g.reshape(-1, g.shape[-1])
                nb._accum(a_in.reshape(-1, a_in.shape[-1]).T @ gb)

    elif ad.ndim == bd.ndim:
        if ad.shape[:-2] != bd.shape[:-2]:
            raise ValueError(f"matmul batch dims differ: {ad.shape} @ {bd.shape} (leading dims)")
        data = ad @ bd

        def backward(g):
            if na is not None:
                na._accum(g @ b_in.swapaxes(-1, -2))
            if nb is not None:
                nb._accum(a_in.swapaxes(-1, -2) @ g)

    else:
        raise ValueError(f"unsupported matmul ranks: {ad.shape} @ {bd.shape}")
    return _make(data, (a, b), "matmul", backward)


# -- neural-net ops -------------------------------------------------------------


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along one axis."""
    a = _as_tensor(a)
    na = _grad_node(a)
    data = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        na._accum((g - dot) * data)

    return _make(data, (a,), "softmax", backward)


def logsumexp(a, axis: int = -1) -> Tensor:
    """log(sum(exp(a))) along one axis, stabilized by a detached max shift."""
    a = _as_tensor(a)
    na = _grad_node(a)
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    data = np.squeeze(np.log(s) + m, axis=axis)
    soft = e / s

    def backward(g):
        na._accum(np.expand_dims(g, axis) * soft)

    return _make(data, (a,), "logsumexp", backward)


def _normalize(x: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    """(xhat, inv_sigma) of layer norm over the last axis: xhat = (x - mean)
    * inv_sigma, inv_sigma = 1 / sqrt(var + LAYER_NORM_EPS). xhat is written
    into `out` when given, which may be x itself. Each statistic is one
    einsum pass over its operands, with no temporary of the squares, in
    whatever memory layout x has."""
    c = x.shape[-1]
    mu = np.einsum("...c->...", x)[..., None] / c
    xhat = np.subtract(x, mu, out=out)
    var = np.einsum("...c,...c->...", xhat, xhat)[..., None] / c
    inv_sigma = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv_sigma
    return xhat, inv_sigma


def _normalize_grad(gh: np.ndarray, xhat: np.ndarray, inv_sigma: np.ndarray, out=None) -> np.ndarray:
    """dL/dx of layer norm over the last axis from gh = dL/dxhat (the
    upstream gradient times gamma), which it overwrites; the result goes
    into `out` when given, into gh otherwise."""
    c = gh.shape[-1]
    m1 = np.einsum("...c->...", gh)[..., None] / c
    m2 = np.einsum("...c,...c->...", gh, xhat)[..., None] / c
    gh -= m1
    gh -= xhat * m2
    return np.multiply(gh, inv_sigma, out=gh if out is None else out)


def layer_norm(a, gamma, beta) -> Tensor:
    """Normalize over the last axis; gamma/beta must broadcast against the output."""
    a, gamma, beta = _as_tensor(a), _as_tensor(gamma), _as_tensor(beta)
    na, ngamma, nbeta = _grad_node(a), _grad_node(gamma), _grad_node(beta)
    gd = gamma.data
    xhat, inv_sigma = _normalize(a.data)
    data = xhat * gd
    data += beta.data

    def backward(g):
        if ngamma is not None:
            ngamma._accum(_unbroadcast(g * xhat, ngamma.shape))
        if nbeta is not None:
            nbeta._accum(_unbroadcast(g, nbeta.shape))
        if na is not None:
            na._accum(_normalize_grad(g * gd, xhat, inv_sigma))

    return _make(data, (a, gamma, beta), "layer_norm", backward)


def dropout(a, p: float, rng: np.random.Generator | None = None, training: bool = True) -> Tensor:
    """Inverted dropout with a stored mask; identity when not training."""
    a = _as_tensor(a)
    if not training or p <= 0.0:
        return a
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout p must be in [0, 1), got {p}")
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    mask = (rng.random(a.data.shape) >= p).astype(a.data.dtype)
    mask /= 1.0 - p
    na = _grad_node(a)

    def backward(g):
        na._accum(g * mask)

    return _make(a.data * mask, (a,), "dropout", backward)


def global_avg_pool(a) -> Tensor:
    """Mean over all non-channel positions; channels are the leading axis."""
    a = _as_tensor(a)
    if a.data.ndim < 2:
        raise ValueError(f"global_avg_pool needs rank >= 2, got shape {a.data.shape}")
    axes = tuple(range(1, a.data.ndim))
    return tmean(a, axis=axes)


# slipped inside the norm sqrt so an exactly-zero vector backpropagates a
# finite (zero) gradient instead of 0 * inf; shifts norms by < 1e-12
_NORM_FLOOR = 1e-24


def cosine_similarity(a, b, eps: float = 1e-8) -> Tensor:
    """cos(a, b) for equal-length vectors, with eps-stabilized norms."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape or a.data.ndim != 1:
        raise ValueError(f"cosine_similarity wants equal 1-D shapes, got {a.data.shape} and {b.data.shape}")
    dot = tsum(mul(a, b))
    na = add(tsqrt(add(tsum(mul(a, a)), _NORM_FLOOR)), eps)
    nb = add(tsqrt(add(tsum(mul(b, b)), _NORM_FLOOR)), eps)
    return div(dot, mul(na, nb))


def l2_normalize(a, axis: int = -1) -> Tensor:
    """Rows of unit L2 norm along `axis` (norm + L2_NORMALIZE_EPS as denominator)."""
    a = _as_tensor(a)
    norm = tsqrt(add(tsum(mul(a, a), axis=axis, keepdims=True), _NORM_FLOOR))
    return div(a, add(norm, L2_NORMALIZE_EPS))


# -- convolutions ----------------------------------------------------------------


def _conv_out_len(n: int, k: int, s: int, p: int, name: str) -> int:
    m = n + 2 * p - k
    if m < 0:
        raise ValueError(f"conv: kernel {k} exceeds padded input {n + 2 * p} along {name}")
    return m // s + 1


# a stage whose input has at least this many channels runs channels-last:
# every stage after the stems, which read 2 or 3 (see the module docstring)
_CHANNELS_LAST_MIN_CIN = 8


def _rows_buffer(rows: int, cols: int, channels_last: bool, dtype) -> np.ndarray:
    """An uninitialized (rows, cols) array: C order when channels_last, else
    the transposed view of a C-order (cols, rows) array, channel-major."""
    return np.empty((rows, cols), dtype=dtype) if channels_last else np.empty((cols, rows), dtype=dtype).T


def _empty_in_order(shape, strides, dtype) -> np.ndarray:
    """An uninitialized array of `shape` whose axes lie in memory in the
    order of `strides`, the largest stride outermost."""
    order = sorted(range(len(shape)), key=lambda i: -strides[i])
    return np.empty([shape[i] for i in order], dtype=dtype).transpose(np.argsort(order))


def _kernel_matrix(kd) -> np.ndarray:
    """The kernels kd (cout, cin, *ksp) as the (K, cout) matrix that patch
    rows multiply, K = prod(ksp)*cin running over (*ksp, cin)."""
    return kd.transpose(tuple(range(2, kd.ndim)) + (1, 0)).reshape(-1, kd.shape[0])


def _conv_input_grad(gmat, kd, x_shape, x_strides, out_sp, stride, padding) -> np.ndarray:
    """dL/dx of a convolution, (B, cin, *spatial) with its axes in memory in
    the order of x_strides, the input's, from the upstream gradient gmat
    (B*N, cout), in either stage layout, and the kernels kd (cout, cin, *ksp).

    Kernel offset k = q*s + r at output o reads padded input cell
    (o + q)*s + r, so along each axis its product goes to phase r = k mod s
    at position o + q. The gradient is zero-extended once to
    E = O + (k - 1) // s per axis; then the shift by q is one flat offset of
    a (B*prod(E), cin) phase buffer, and the cells a flat shift wraps across
    rows or samples read only the extension's exact zeros. Every add is a
    shifted add of whole rows, and each phase is written into dx once at the
    end. The products and phases are channels-last when the input's channel
    axis is innermost in memory, channel-major otherwise, so that those
    writes copy runs that lie contiguous in both.
    """
    B, cin = x_shape[:2]
    spatial = x_shape[2:]
    cout, ksp = kd.shape[0], kd.shape[2:]
    nd = len(ksp)
    out_sp = tuple(out_sp)
    channels_last = x_strides[1] == min(x_strides)
    dtype = np.result_type(kd, gmat)
    ext = tuple(o + (k - 1) // s for o, k, s in zip(out_sp, ksp, stride))
    gext = _rows_buffer(B * int(np.prod(ext)), cout, channels_last, gmat.dtype)
    gext[...] = 0.0
    gext = gext.reshape((B,) + ext + (cout,))
    gext[(slice(None),) + tuple(slice(0, o) for o in out_sp)] = gmat.reshape((B,) + out_sp + (cout,))
    gext = gext.reshape(-1, cout)
    L = gext.shape[0]
    ext_strides = [int(np.prod(ext[d + 1:])) for d in range(nd)]
    # one (L, cout) @ (cout, k_last*cin) product per row of kernel offsets
    kl = ksp[-1]
    wt = _kernel_matrix(kd).reshape(-1, kl * cin, cout)
    offsets = list(np.ndindex(*ksp))
    phases = {}
    for row, w in enumerate(wt):
        prod = np.matmul(gext, w.T, out=_rows_buffer(L, kl * cin, channels_last, dtype)).reshape(L, kl, cin)
        for j, off in enumerate(offsets[row * kl:(row + 1) * kl]):
            p = prod[:, j]
            r = tuple(k % s for k, s in zip(off, stride))
            shift = sum((k // s) * e for k, s, e in zip(off, stride, ext_strides))
            if r not in phases:  # a phase's first offset in ndindex order is r itself: no shift
                phases[r] = p.copy(order="K")
            else:
                phases[r][shift:] += p[:L - shift]
    # dx comes once the last product is dropped: the phases hold all it reads
    prod = p = gext = None
    dx = _empty_in_order(x_shape, x_strides, dtype)
    # per axis, each phase's (source, destination) slices of its write into dx
    dxl = np.moveaxis(dx, 1, -1)  # (B, *spatial, cin)
    writes = []
    for d in range(nd):
        s, p = stride[d], padding[d]
        covered = np.zeros(spatial[d], dtype=bool)
        per_phase = []
        for r in range(min(ksp[d], s)):
            j0 = max(0, -((r - p) // s))  # first phase position inside the padding
            j1 = max(j0, min(ext[d], -((r - p - spatial[d]) // s)))
            x0 = j0 * s + r - p
            per_phase.append((slice(j0, j1), slice(x0, x0 + (j1 - j0) * s, s)))
            covered[per_phase[-1][1]] = True
        writes.append(per_phase)
        # no phase writes a position of a phase no offset reaches (a kernel
        # shorter than its stride) or past the last window: its gradient is 0
        if not covered.all():
            dxl[(slice(None),) * (1 + d) + (~covered,)] = 0.0
    for r, acc in phases.items():
        src = (slice(None),) + tuple(writes[d][r[d]][0] for d in range(nd))
        dst = (slice(None),) + tuple(writes[d][r[d]][1] for d in range(nd))
        dxl[dst] = acc.reshape((B,) + ext + (cin,))[src]
    return dx


def _conv_kernel_grad(gmat, x, ksp, out_sp, stride, padding, chunks, channels_last: bool) -> np.ndarray:
    """dL/dk of a convolution, (cout, cin, *ksp), from the upstream gradient
    gmat (B*N, cout) in the stage's layout and the unpadded input x
    (B, cin, *spatial).

    The patch matrix is rebuilt one chunk of samples (lo, hi) of `chunks` at
    a time and dies with its product. (K, n*N) @ (n*N, cout) runs faster in
    BLAS than the transposed product; the products are summed in chunk order.
    """
    N = int(np.prod(out_sp))
    parts = (_patch_matrix(x[lo:hi], ksp, out_sp, stride, padding, channels_last).T @ gmat[lo * N:hi * N]
             for lo, hi in chunks)
    gk = next(parts)
    for part in parts:
        gk += part
    nd = len(ksp)  # gk's rows run over (*ksp, cin), as _kernel_matrix's
    return gk.reshape(tuple(ksp) + (x.shape[1], -1)).transpose((nd + 1, nd) + tuple(range(nd)))


# the most bytes one patch matrix of _convnd may take; larger batches are
# split into chunks of samples (see _sample_chunks)
_PATCH_CHUNK_BYTES = 4 << 20
# the most bytes of a conv output that its layer norm and leaky relu work on
# at a time: a tile this size stays in a core's L2 cache through their passes
_EPILOGUE_TILE_BYTES = 512 << 10


def _sample_chunks(B: int, bytes_per_sample: int, budget: int) -> list[tuple[int, int]]:
    """(lo, hi) sample ranges covering range(B): the fewest chunks of at most
    max(1, budget // bytes_per_sample) samples, their sizes as equal as
    possible, so no chunk is a small tail GEMM."""
    per = max(1, budget // bytes_per_sample)
    n = max(1, -(-B // per))
    bounds = [i * B // n for i in range(n + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _patch_matrix(x, ksp, out_sp, stride, padding, channels_last: bool) -> np.ndarray:
    """The (B*N, K) im2col matrix of x (B, cin, *spatial), N = prod(out_sp),
    K = prod(ksp)*cin: one row per sample and output position, its columns
    running over (*ksp, cin), as the rows of _kernel_matrix.

    x is zero-padded into a fresh buffer indexed (B, cin, *padded), which
    dies with the call, and the windows are one view of it, (B, *out_sp,
    *ksp, cin). The layout picks only the buffer's memory order and that of
    the matrix the view is copied into (see _rows_buffer). Channels-last the buffer lies in memory as (B, *padded,
    cin), so a row is prod(ksp[:-1]) runs of ksp[-1]*cin values that lie
    contiguous there, and the matrix is in C order. Channel-first the buffer
    lies as it is indexed, and the matrix is the transposed view of a C-order
    (K, B*N) array, whose rows are runs of output positions. _convnd passes a
    chunk of samples at a time, each chunk's matrix at most _PATCH_CHUNK_BYTES
    unless one sample alone passes it.
    """
    B, cin = x.shape[:2]
    padded = tuple(n + 2 * p for n, p in zip(x.shape[2:], padding))
    if channels_last:
        xp = np.moveaxis(np.zeros((B,) + padded + (cin,), dtype=x.dtype), -1, 1)
    else:
        xp = np.zeros((B, cin) + padded, dtype=x.dtype)
    xp[(slice(None), slice(None)) + tuple(slice(p, p + n) for n, p in zip(x.shape[2:], padding))] = x
    sb, sc, *sp = xp.strides
    win = tuple(d * s for d, s in zip(sp, stride))
    view = np.lib.stride_tricks.as_strided(xp, (B,) + out_sp + ksp + (cin,), (sb,) + win + tuple(sp) + (sc,))
    rows = _rows_buffer(B * int(np.prod(out_sp)), cin * int(np.prod(ksp)), channels_last, x.dtype)
    rows.reshape(view.shape)[...] = view  # in either layout that reshape is a view of rows
    return rows


def _convnd(a, kernels, gamma, beta, stride, padding, leaky: bool, nd: int, op: str) -> Tensor:
    """Shared 2-D/3-D conv stage: GEMMs of the kernels with the patch
    matrices of balanced chunks of samples (see _sample_chunks), then, in the
    same node, a layer norm over the output channels (gamma, beta) and, when
    leaky, a leaky relu, run in place on the output in tiles of samples of at
    most _EPILOGUE_TILE_BYTES.

    Every array of the stage is indexed (B*N, channels), one row per sample
    and output position; a stage whose input has at least
    _CHANNELS_LAST_MIN_CIN channels lays them out channels-last (C order),
    any other channel-major (the transposed view of a C-order array).

    a: (B, Cin, *spatial); kernels: (Cout, Cin, *kspatial); gamma, beta:
    Cout values each, in any shape (the networks keep (1, Cout, 1, ...)).
    """
    a, kernels, gamma, beta = _as_tensor(a), _as_tensor(kernels), _as_tensor(gamma), _as_tensor(beta)
    x = a.data
    kd = kernels.data
    if x.ndim != nd + 2:
        raise ValueError(f"{op}: input rank must be {nd + 2}, got {x.ndim}")
    if kd.ndim != nd + 2:
        raise ValueError(f"{op}: kernels rank must be {nd + 2}, got {kd.ndim}")
    B, cin = x.shape[0], x.shape[1]
    if kd.shape[1] != cin:
        raise ValueError(f"{op}: input channels {cin} != kernel channels {kd.shape[1]} (dim 1)")
    spatial = x.shape[2:]
    ksp = kd.shape[2:]
    stride = tuple(int(s) for s in stride)
    padding = tuple(int(p) for p in padding)
    names = ("T", "H", "W")[-nd:]
    out_sp = tuple(
        _conv_out_len(spatial[i], ksp[i], stride[i], padding[i], names[i]) for i in range(nd)
    )
    N = int(np.prod(out_sp))
    cout = kd.shape[0]
    cl = cin >= _CHANNELS_LAST_MIN_CIN
    wmat = _kernel_matrix(kd)
    chunks = _sample_chunks(B, wmat.shape[0] * N * x.itemsize, _PATCH_CHUNK_BYTES)
    dtype = np.result_type(kd, x)
    out = _rows_buffer(B * N, cout, cl, dtype)
    for lo, hi in chunks:
        # a chunk's padded input and patch matrix die after its GEMM, which
        # writes its rows of the output in place; numpy makes the transposed
        # BLAS call when those rows are channel-major
        np.matmul(_patch_matrix(x[lo:hi], ksp, out_sp, stride, padding, cl), wmat, out=out[lo * N:hi * N])
    parents = (a, kernels, gamma, beta)
    na, nk, ngamma, nbeta = (_grad_node(t) for t in parents)
    keep = _GRAD_ENABLED and any(t.requires_grad for t in parents)
    # the backward reads xhat and 1/sigma; without it each tile is normalized
    # in place and nothing is kept
    xhat = _rows_buffer(B * N, cout, cl, dtype) if keep else None
    inv_sigma = np.empty((B * N, 1), dtype=dtype) if keep else None
    gd, bd = gamma.data.reshape(1, cout), beta.data.reshape(1, cout)
    tiles = _sample_chunks(B, cout * N * out.itemsize, _EPILOGUE_TILE_BYTES)
    for lo, hi in tiles:
        rows = slice(lo * N, hi * N)
        blk = out[rows]
        xh, inv = _normalize(blk, out=blk if xhat is None else xhat[rows])
        if keep:
            inv_sigma[rows] = inv
        np.multiply(xh, gd, out=blk)
        blk += bd
        if leaky:
            _leaky(blk, out=blk)
    # the kernel gradient rebuilds the patch matrices, chunk by chunk, from
    # the unpadded input, about prod(ksp)/prod(stride) times smaller than the
    # whole patch matrix; the input gradient reads the kernels and writes dx
    # in the memory layout of the input. _patch_matrix takes x_in as an
    # argument, so a conv with frozen kernels holds no input. A leaky stage
    # reads its slope from the sign of its own output, which the next conv
    # holds as its input anyway.
    x_in = x if nk is not None else None
    k_in = kd if na is not None else None
    x_shape, x_strides = x.shape, x.strides
    y = out if leaky and keep else None

    def backward(g):
        # dL/d(conv output), in the stage's layout, tile by tile
        gmat = _rows_buffer(B * N, cout, cl, np.result_type(g, dtype))
        g = np.moveaxis(g.reshape(B, cout, N), 1, -1)  # (B, N, cout), in the layout it came in
        ggamma = gbeta = 0  # each sum becomes its first tile's array
        for lo, hi in tiles:
            # (n, N, cout) views of the tile's rows
            def samples(m):
                return m[lo * N:hi * N].reshape(hi - lo, N, -1)

            gc = g[lo:hi] if y is None else _leaky_grad(samples(y), g[lo:hi], dtype)
            xh = samples(xhat)
            if ngamma is not None:
                ggamma += (gc * xh).sum(axis=(0, 1))
            if nbeta is not None:
                gbeta += gc.sum(axis=(0, 1))
            if na is not None or nk is not None:
                _normalize_grad(gc * gd, xh, samples(inv_sigma), out=samples(gmat))
        g = gc = None  # the kernel and input gradients read only gmat
        if ngamma is not None:
            ngamma._accum(ggamma.reshape(ngamma.shape))
        if nbeta is not None:
            nbeta._accum(gbeta.reshape(nbeta.shape))
        if nk is not None:
            nk._accum(_conv_kernel_grad(gmat, x_in, ksp, out_sp, stride, padding, chunks, cl))
        if na is not None:
            na._accum(_conv_input_grad(gmat, k_in, x_shape, x_strides, out_sp, stride, padding))

    out = np.moveaxis(out.reshape((B,) + out_sp + (cout,)), -1, 1)
    return _make(out, parents, op, backward)


def conv3d(a, kernels, gamma, beta, stride, padding, leaky) -> Tensor:
    """3-D conv stage over (B, Cin, T, H, W): the convolution, a layer norm
    over the output channels with gamma and beta, and, when leaky, a leaky
    relu, in one node (see _convnd)."""
    return _convnd(a, kernels, gamma, beta, stride, padding, leaky, 3, "conv3d")


def conv2d(a, kernels, gamma, beta, stride, padding, leaky) -> Tensor:
    """2-D conv stage over (B, Cin, H, W), as conv3d."""
    return _convnd(a, kernels, gamma, beta, stride, padding, leaky, 2, "conv2d")
