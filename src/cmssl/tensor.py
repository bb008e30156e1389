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
exp and sqrt outputs; layer_norm's xhat; a conv's patch matrix and kernels;
masks), never a Tensor. So once the caller drops an intermediate Tensor its
array is freed unless some backward reads it: a conv or layer_norm output
dies with its Tensor.

Who owns a gradient array:
- Leaves (tensors not made by an op) own their .grad buffer and accumulate
  into it in place. Parameters created with requires_grad=True start with a
  zero buffer, so an unused parameter reads back an all-zero gradient rather
  than None, and repeated backward() calls add up.
- Non-leaf nodes adopt the first gradient array they receive without
  copying; a sibling may hold the same array, so later contributions are
  added out of place. Closures therefore never write into the gradient they
  are given.
- A non-leaf node's gradient is released (set to None) as soon as its
  closure has run, so after backward() only leaves hold gradients.
- backward() consumes the graph: once a node's closure has run, the closure
  is replaced by a spent marker and the node's parent links are dropped, so
  the arrays it read are freed during the walk, not when the loss is
  dropped. A second backward() that reaches a consumed node, from the same
  loss or from any loss that shares a node with it, raises RuntimeError
  before any gradient is touched.

Memory between steps: a training step allocates its activations and
gradients and frees them as backward() walks the graph. By tracemalloc, a
B=8 forward of the default float32 model leaves 70.7 MiB live, the peak of
its backward is 72.7 MiB, and 1.1 MiB stays live after it while the
forward's outputs are still held (138.7, 142.7 and 2.1 MiB at float64).
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
    # -1 disables trimming: the ≈73 MiB a float32 B=8 step frees stays mapped
    # for the next step. No mmap threshold is enough on its own: the largest
    # array grows with the batch (the float32 patch matrix of v_net's second
    # conv is 13.5 MiB at 8 clips and 54 MiB at 32), and glibc caps the
    # threshold at 32 MiB, so a 32-clip forward would still map and fault in
    # 54 MiB per batch.
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
                node._backward(node.grad)
                node.grad = None
            node._backward = _spent
            node._parents = ()


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


def leaky_relu(a) -> Tensor:
    """a where a > 0, LEAKY_RELU_SLOPE * a elsewhere; computed as
    max(a, slope * a), which is that because 0 <= slope <= 1."""
    a = _as_tensor(a)
    na = _grad_node(a)
    mask = a.data > 0
    data = a.data * LEAKY_RELU_SLOPE
    np.maximum(data, a.data, out=data)

    def backward(g):
        f = mask.astype(na.dtype)
        np.maximum(f, LEAKY_RELU_SLOPE, out=f)
        f *= g
        na._accum(f)

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
    """a @ b. Supports 2-D @ 2-D, N-D @ 2-D (trailing-dim contraction),
    and equal-batch 3-D @ 3-D."""
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

    elif ad.ndim == 3 and bd.ndim == 3:
        if ad.shape[0] != bd.shape[0]:
            raise ValueError(f"matmul batch dims differ: {ad.shape} @ {bd.shape} (dim 0)")
        data = ad @ bd

        def backward(g):
            if na is not None:
                na._accum(g @ b_in.transpose(0, 2, 1))
            if nb is not None:
                nb._accum(a_in.transpose(0, 2, 1) @ g)

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


def layer_norm(a, gamma, beta, axis: int = -1) -> Tensor:
    """Normalize over one axis; gamma/beta must broadcast against the output."""
    a, gamma, beta = _as_tensor(a), _as_tensor(gamma), _as_tensor(beta)
    na, ngamma, nbeta = _grad_node(a), _grad_node(gamma), _grad_node(beta)
    gd = gamma.data
    ax = axis % a.data.ndim
    mu = a.data.mean(axis=ax, keepdims=True)
    xhat = a.data - mu
    var = np.mean(xhat * xhat, axis=ax, keepdims=True)
    inv_sigma = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv_sigma
    data = xhat * gd
    data += beta.data

    def backward(g):
        if ngamma is not None:
            ngamma._accum(_unbroadcast(g * xhat, ngamma.shape))
        if nbeta is not None:
            nbeta._accum(_unbroadcast(g, nbeta.shape))
        if na is not None:
            gh = g * gd
            m1 = gh.mean(axis=ax, keepdims=True)
            m2 = (gh * xhat).mean(axis=ax, keepdims=True)
            gh -= m1
            gh -= xhat * m2
            gh *= inv_sigma
            na._accum(gh)

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


def _conv_input_grad(gmat, kd, x_shape, out_sp, stride, padding) -> np.ndarray:
    """dL/dx of a convolution, channel-major (cin, B, *spatial), from the
    upstream gradient gmat (cout, B*N) and the kernels kd (cout, cin, *ksp).

    Kernel offset k = q*s + r at output o reads padded input cell
    (o + q)*s + r, so along each axis its product goes to phase r = k mod s
    at position o + q. The gradient is zero-extended once to
    E = O + (k - 1) // s per axis; then the shift by q is one flat offset of
    a (cin, B*prod(E)) phase buffer, and the cells a flat shift wraps across
    rows or samples read only the extension's exact zeros. Every add is a
    contiguous row add, and each phase is written into dx once at the end.
    """
    B, cin = x_shape[:2]
    spatial = x_shape[2:]
    cout, ksp = kd.shape[0], kd.shape[2:]
    nd = len(ksp)
    ext = tuple(o + (k - 1) // s for o, k, s in zip(out_sp, ksp, stride))
    if ext == tuple(out_sp):
        gext = gmat
    else:
        gext = np.zeros((cout, B) + ext, dtype=gmat.dtype)
        gext[(slice(None), slice(None)) + tuple(slice(0, o) for o in out_sp)] = gmat.reshape((cout, B) + out_sp)
        gext = gext.reshape(cout, -1)
    L = gext.shape[1]
    ext_strides = [int(np.prod(ext[d + 1:])) for d in range(nd)]
    # one (k_last*cin, cout) @ (cout, L) product per row of kernel offsets
    kl = ksp[-1]
    wt = np.ascontiguousarray(kd.reshape(cout, cin, -1).transpose(2, 1, 0)).reshape(-1, kl * cin, cout)
    offsets = list(np.ndindex(*ksp))
    phases = {}
    for row, w in enumerate(wt):
        prod = (w @ gext).reshape(kl, cin, L)
        for off, p in zip(offsets[row * kl:(row + 1) * kl], prod):
            r = tuple(k % s for k, s in zip(off, stride))
            shift = sum((k // s) * e for k, s, e in zip(off, stride, ext_strides))
            if r not in phases:  # a phase's first offset in ndindex order is r itself: no shift
                phases[r] = p.copy()
            else:
                phases[r][:, shift:] += p[:, :L - shift]
    # per axis, each phase's (source, destination) slices of its write into dx
    dx = np.empty((cin, B) + tuple(spatial), dtype=np.result_type(wt, gext))
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
            dx[(slice(None),) * (2 + d) + (~covered,)] = 0.0
    for r, acc in phases.items():
        src = (slice(None),) * 2 + tuple(writes[d][r[d]][0] for d in range(nd))
        dst = (slice(None),) * 2 + tuple(writes[d][r[d]][1] for d in range(nd))
        dx[dst] = acc.reshape((cin, B) + ext)[src]
    return dx


def _convnd(a: Tensor, kernels: Tensor, stride, padding, nd: int, op: str) -> Tensor:
    """Shared 2-D/3-D convolution via strided patch extraction + matmul.

    a: (B, Cin, *spatial); kernels: (Cout, Cin, *kspatial).
    """
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

    # the input inside its zero border: a zeros buffer and one slice copy
    core = (slice(None), slice(None)) + tuple(slice(p, p + n) for p, n in zip(padding, spatial))
    if any(padding):
        xp = np.zeros(x.shape[:2] + tuple(n + 2 * p for p, n in zip(padding, spatial)), dtype=x.dtype)
        xp[core] = x
    else:
        xp = x

    # patch layout (cin, *ksp, B, *out_sp) folds the whole batch into the GEMM
    # columns, so the forward and the kernel gradient are single GEMM calls
    sx = xp.strides
    view_shape = (B, cin) + ksp + out_sp
    view_strides = (
        sx[:2]
        + tuple(sx[2 + i] for i in range(nd))
        + tuple(sx[2 + i] * stride[i] for i in range(nd))
    )
    cols = np.moveaxis(np.lib.stride_tricks.as_strided(xp, view_shape, view_strides), 0, nd + 1)
    K = cin * int(np.prod(ksp))
    N = int(np.prod(out_sp))
    colmat = cols.reshape(K, B * N)
    cout = kd.shape[0]
    kmat = kd.reshape(cout, K)
    out = (kmat @ colmat).reshape(cout, B, N).transpose(1, 0, 2).reshape((B, cout) + out_sp)
    na, nk = _grad_node(a), _grad_node(kernels)
    # the kernel gradient reads the patch matrix, the input gradient the kernels
    cols_in = colmat if nk is not None else None
    k_in = kd if na is not None else None

    def backward(g):
        gmat = np.moveaxis(g, 1, 0).reshape(cout, B * N)
        if nk is not None:
            # (K, B*N) @ (B*N, cout) runs faster in BLAS than the transposed product
            nk._accum((cols_in @ gmat.T).T.reshape(nk.shape))
        if na is not None:
            na._accum(np.moveaxis(_conv_input_grad(gmat, k_in, (B, cin) + spatial, out_sp, stride, padding), 1, 0))

    return _make(out, (a, kernels), op, backward)


def conv3d(a, kernels, stride=(1, 1, 1), padding=(0, 0, 0)) -> Tensor:
    """3-D convolution over (B, Cin, T, H, W)."""
    return _convnd(_as_tensor(a), _as_tensor(kernels), stride, padding, 3, "conv3d")


def conv2d(a, kernels, stride=(1, 1), padding=(0, 0)) -> Tensor:
    """2-D convolution over (B, Cin, H, W)."""
    return _convnd(_as_tensor(a), _as_tensor(kernels), stride, padding, 2, "conv2d")
