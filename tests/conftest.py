"""Shared oracles for the test suite."""

import numpy as np
import pytest

from cmssl.networks import ModelConfig, TransformerConfig
from cmssl.tensor import Tensor, _Node, _spent

# a model small enough for finite differences and for one traced step
TINY_MODEL = ModelConfig(
    input_size=8, clip_len=4, mv_len=4,
    v_channels=(4, 4, 4), i_channels=(4, 4, 4), m_channels=(4, 4, 4),
    embed_dim=4, head_hidden=4,
    transformer=TransformerConfig(encoder_layers=1, decoder_layers=1, width=8, heads=2, ff_width=8),
)


def tiny_batch() -> dict:
    """A collated batch of two standard-normal samples shaped for TINY_MODEL."""
    rng = np.random.default_rng(0)
    return {
        "clip": rng.normal(size=(2, 3, 4, 8, 8)),
        "iframe": rng.normal(size=(2, 3, 8, 8)),
        "mv": rng.normal(size=(2, 2, 4, 8, 8)),
        "neg_mv": rng.normal(size=(2, 2, 4, 8, 8)),
        "video_ids": np.arange(2),
    }


def finite_difference_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f w.r.t. every element of x.

    x must be float64: at h = 1e-5 a float32 difference quotient is mostly
    rounding noise, so a gradcheck run at float32 would prove nothing."""
    assert x.dtype == np.float64, f"finite differences need a float64 input, got {x.dtype}"
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max-norm relative error between gradient arrays."""
    denom = max(np.abs(numeric).max(), np.abs(analytic).max(), 1e-12)
    return float(np.abs(analytic - numeric).max() / denom)


def graph_nodes(root: Tensor) -> list[_Node]:
    """Every graph node reachable from root's node through the recorded
    parents; a node keeps its tensor's op, shape and dtype, not its data."""
    seen, todo, out = set(), [root._node], []
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        todo.extend(node._parents)
    return out


def grid_at(cv, t):
    """The MV grid of frame t, or None when t is an I-frame: every GOP before
    t's holds gop_size - 1 P-frames."""
    gop, i = divmod(t, cv.config.gop_size)
    return None if i == 0 else cv.mvs[gop * (cv.config.gop_size - 1) + i - 1]


def repeat_then_subsample(cv, frames, out_size):
    """extract_modalities in float64: the maps at full pixel resolution, then
    every sampled pixel taken from them and its offsets rescaled."""
    b, h, w = cv.config.block_size, cv.height, cv.width
    full = np.zeros((len(frames), 2, h, w))
    for i, t in enumerate(frames):
        grid = grid_at(cv, t)
        if grid is not None:
            full[i] = np.repeat(np.repeat(grid, b, axis=0), b, axis=1).transpose(2, 0, 1)
    oh, ow = out_size
    out = np.zeros((len(frames), 2, oh, ow))
    for y in range(oh):
        for x in range(ow):
            out[:, :, y, x] = full[:, :, min(y * h // oh, h - 1), min(x * w // ow, w - 1)]
    out[:, 0] *= ow / w
    out[:, 1] *= oh / h
    return out


@pytest.fixture
def grad_dtypes(monkeypatch):
    """The set of dtypes of every gradient that backward() hands to a node
    during the test (a leaf's own buffer would hide a promoted one)."""
    seen = set()
    accum = _Node._accum

    def recording(self, g):
        seen.add(g.dtype)
        accum(self, g)

    monkeypatch.setattr(_Node, "_accum", recording)
    return seen


def assert_graph_consumed(non_leaves: list[_Node]):
    """After backward(), each non-leaf node, gathered before it, holds no
    gradient, no parents and a spent closure."""
    left = [n.op for n in non_leaves if n.grad is not None or n._parents or n._backward is not _spent]
    assert not left, f"non-leaf nodes not consumed by backward(): {left}"


def assert_grad_matches(build_loss, arrays, tol: float = 1e-4, h: float = 1e-5):
    """Check analytic grads of build_loss(*tensors) against central differences.

    build_loss must be deterministic and accept Tensors positionally. Every
    array in `arrays` is treated as a differentiable input and must be
    float64, and so must every analytic gradient. Also checks that
    backward() consumed every non-leaf node of the graph.
    """
    for idx, a in enumerate(arrays):
        assert a.dtype == np.float64, f"input {idx}: gradcheck needs float64, got {a.dtype}"
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build_loss(*tensors)
    non_leaves = [n for n in graph_nodes(loss) if n._backward is not None]
    loss.backward()
    assert_graph_consumed(non_leaves)
    for idx, (t, a) in enumerate(zip(tensors, arrays)):
        assert t.grad.dtype == np.float64, f"input {idx}: analytic gradient is {t.grad.dtype}, not float64"
        def f(x, _idx=idx):
            args = [Tensor(arr.copy()) for arr in arrays]
            args[_idx] = Tensor(x)
            return build_loss(*args).item()

        numeric = finite_difference_grad(f, a.copy(), h=h)
        err = max_rel_error(t.grad, numeric)
        assert err < tol, f"input {idx}: analytic/FD gradient mismatch, rel err {err:.3e}"
