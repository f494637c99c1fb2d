"""Twin embedding network trained on statement pairs, from scratch in numpy.

Architecture: embedding lookup -> conv(width 3, 64 filters, same padding)
-> ReLU -> max pool(2,2) -> conv -> ReLU -> max pool(2,2) -> global max
-> dense(128) -> sigmoid.  Pair similarity is exp(-L1) between the two
embeddings; training minimizes binary cross-entropy with Adam.  All
arithmetic is float64 and fully deterministic given the seed.

Each layer is computed once per node, a distinct receptive field of that
layer in the batch, not once per position.  The embedding is folded into
conv1, which reads a table of the batch's distinct tokens and runs once
per distinct (left, centre, right) token window (`_embed_conv1`).  The
first max-pool runs once per distinct pair of conv1 nodes, conv2 once per
distinct window of three pooled nodes, and the second pool once per
distinct pair of conv2 nodes (`_pair_ids`, `_window_ids`); each row's
global max reads its positions through the inverse index.  Statements are
short and padded to `max_len`, so most windows repeat: over a `perfbench
train` fit, 15% of the conv1 positions and 25% of the conv2 positions are
distinct.  The backward pass adds each node's gradient once, through the
same inverse indexes (`_scatter_add`), and runs conv2's GEMMs and conv1's
token sums over the nodes.  A training step runs both twins of its B
pairs as one 2B batch.

The forward pass keeps the bits of a per-position pass: a node gets the
operations each of its positions would, in the same order, and conv2's
products run as GEMMs of L / 2 rows, the shape a per-position convolution
of one row gives OpenBLAS, whose small-matrix kernel rounds otherwise
than its large one.  So `embed_batch` on a given model gives the same
bytes as the per-position layers did.  The backward pass sums the same
terms in another order, so the gradients, and with them the trained
bytes, moved at rounding level when the layers became node-wise: the
seed-42 fit of `tsgkit train` by at most 2e-10 per parameter.

Every large array that a forward pass, a backward pass and an Adam step
write lives in a `_Workspace`: one per fit, sized for a batch whose
positions are all distinct, and one forward-only workspace per
`embed_batch` call.  A pass uses leading views, and the layers write with
`out=`, `np.copyto` and in-place operations.  The reason is the C
allocator: when a step frees ~1 MB activations, it returns the top of the
heap to the system, and the next step page-faults it back in.  A
`perfbench train` fit now takes about 3,200 minor page faults (7,700 with
per-position layers, 70k-375k before the workspace).  The workspace
computes each value with the operations fresh arrays would get, on the
same operands in the same order, so the trained bytes do not depend on it.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

EMBED_DIM = 100
CONV_FILTERS = 64
KERNEL_WIDTH = 3
DENSE_DIM = 128
LOSS_EPS = 1e-7
# Widest index row a model takes: 16 times the default `Hyper.max_len`.
MAX_LEN_LIMIT = 1024

MAGIC = b"TSGSIAM1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<IQQQdQQ")


@dataclass(frozen=True)
class Hyper:
    max_len: int = 64
    seed: int = 0
    learning_rate: float = 1e-3
    epochs: int = 30
    batch_size: int = 32

    def __post_init__(self):
        # Two halvings of the position axis need at least 4 positions.
        if self.max_len < 4:
            raise ValueError("max_len must be at least 4")
        if self.max_len > MAX_LEN_LIMIT:
            raise ValueError(f"max_len must be at most {MAX_LEN_LIMIT}")
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning_rate must be a finite number at least 0")


def _layout(vocab_size: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Name and shape of every parameter tensor, in file order."""
    return (
        ("embedding", (vocab_size, EMBED_DIM)),
        ("conv1_w", (CONV_FILTERS, KERNEL_WIDTH, EMBED_DIM)),
        ("conv1_b", (CONV_FILTERS,)),
        ("conv2_w", (CONV_FILTERS, KERNEL_WIDTH, CONV_FILTERS)),
        ("conv2_b", (CONV_FILTERS,)),
        ("dense_w", (CONV_FILTERS, DENSE_DIM)),
        ("dense_b", (DENSE_DIM,)),
    )


def _n_params(vocab_size: int) -> int:
    return sum(math.prod(shape) for _, shape in _layout(vocab_size))


def _views(flat: np.ndarray, vocab_size: int) -> dict[str, np.ndarray]:
    """Tensor name -> reshaped view into `flat`, in `_layout` order."""
    views = {}
    at = 0
    for name, shape in _layout(vocab_size):
        size = math.prod(shape)
        views[name] = flat[at : at + size].reshape(shape)
        at += size
    return views


@dataclass(eq=False)
class SiameseModel:
    """All parameters live in `flat`, in `_layout` order; `params` maps each
    tensor name to a reshaped view into it, so writes through either agree."""

    flat: np.ndarray
    hyper: Hyper
    vocab_size: int
    loss_trace: list[float] = field(default_factory=list)
    params: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.params = _views(self.flat, self.vocab_size)


def init_model(vocab_size: int, hyper: Hyper) -> SiameseModel:
    rng = np.random.default_rng(hyper.seed)
    # One draw gives the same values as one draw per tensor in layout order.
    flat = rng.uniform(-0.05, 0.05, size=_n_params(vocab_size))
    return SiameseModel(flat, hyper, vocab_size)


def _as_batch(xs: list[tuple[int, ...]]) -> np.ndarray:
    return np.array(xs, dtype=np.int64)


class _Workspace:
    """Preallocated arrays for passes over at most `n` index rows of width `length`.

    A pass computes each layer once per node, a distinct receptive field of
    that layer, not once per position.  The node arrays are sized for a
    batch whose positions are all distinct, and a pass uses their leading
    rows.  With `backward`, the workspace also holds the backward buffers,
    one flat gradient vector `grad` in `_layout` order (`grads` holds its
    per-tensor views) and Adam's two temporaries.  `gathered`, `left`,
    `right`, `x2` and `prod` hold one layer's short-lived values in turn.
    A forward pass leaves each layer's nodes (`uniq`, `taps1`, `pool1`,
    `taps2`, `pool2`) and `rowmax` for the backward pass.
    """

    def __init__(self, n: int, length: int, vocab_size: int, backward: bool = False):
        k, nf, e = KERNEL_WIDTH, CONV_FILTERS, EMBED_DIM
        half, quarter = length // 2, length // 4
        # Most nodes per layer: one per position that the next layer reads.
        n1, n2, n3, n4 = n * 2 * half, n * half, n * 2 * quarter, n * quarter
        n_uniq = min(vocab_size, n * length)  # most distinct tokens in a batch
        self.eu = np.empty((n_uniq, e))
        self.wr = np.empty((k * nf, e))
        self.t = np.empty((n_uniq + 1, k * nf))
        self.rows1 = np.empty((n, length + k - 1), dtype=np.int64)
        self.rows2 = np.empty((n, half + k - 1), dtype=np.int64)
        self.z1 = np.empty((n1, nf))
        self.gathered = np.empty((n1, nf))
        self.left = np.empty((n2, nf))
        self.right = np.empty((n2, nf))
        self.p1 = np.empty((n2 + 1, nf))
        self.mask1 = np.empty((n2, nf), dtype=bool)
        # conv2 runs in blocks of `half` rows; n3 rounded up to a block fits in n2.
        self.x2 = np.empty((n2, nf))
        self.prod = np.empty((n2, nf))
        self.z2 = np.empty((n2, nf))
        self.p2 = np.empty((n4, nf))
        self.mask2 = np.empty((n4, nf), dtype=bool)
        self.rowmax = np.empty((n, quarter, nf))
        self.gmax = np.empty((n, nf))
        self.zd = np.empty((n, DENSE_DIM))
        if not backward:
            return
        self.xb = np.empty((n, length), dtype=np.int64)
        self.dout = np.empty((n, DENSE_DIM))
        self.grad = np.empty(_n_params(vocab_size))
        self.grads = _views(self.grad, vocab_size)
        self.adam = np.empty((2, self.grad.size))
        self.flat = np.empty((n1, nf), dtype=np.int64)
        self.dp2 = np.empty((n4, nf))
        self.da2 = np.empty((n3, nf))
        self.pos2 = np.empty((n3, nf), dtype=bool)
        self.dp1 = np.empty((n2 + 1, nf))
        self.da1 = np.empty((n1, nf))
        self.pos1 = np.empty((n1, nf), dtype=bool)
        self.dt = np.empty(((n_uniq + 1) * k, nf))
        self.deu = np.empty((n_uniq, e))
        self.dwr = np.empty((k * nf, e))


def _pair_ids(a: np.ndarray, b: np.ndarray, nb: int):
    """The distinct pairs (a[i], b[i]) of two int64 arrays of one shape, with
    0 <= a and 0 <= b < nb.

    Returns `first` and `second`, the values of each distinct pair in
    sorted order, and `inv`, the index of each element's pair, shaped like
    a.  The key a * nb + b stays below (max(a) + 1) * nb.  Callers pass
    dense ids of one batch, each below its position count plus one, so a
    key overflows int64 only past 3.03e9 positions.
    """
    uniq, inv = np.unique(a * nb + b, return_inverse=True)
    first, second = np.divmod(uniq, nb)
    return first, second, inv.reshape(a.shape)


def _window_ids(rows: np.ndarray, width: int, nb: int):
    """The distinct windows rows[:, j : j + K] for j < width, of values below nb.

    Returns `taps`, K arrays holding each distinct window's value at each
    offset, and `inv` [n, width], the window index of each position.  The
    key combines two ids at a time (`_pair_ids`); one key of all K values
    would grow with the batch's position count to the power K.
    """
    first, second, inv = _pair_ids(rows[:, :width], rows[:, 1 : width + 1], nb)
    taps = [first, second]
    for off in range(2, KERNEL_WIDTH):
        prefix, last, inv = _pair_ids(inv, rows[:, off : off + width], nb)
        taps = [tap[prefix] for tap in taps] + [last]
    return taps, inv


def _scatter_add(dst: np.ndarray, idx: np.ndarray, src: np.ndarray, ws: _Workspace) -> None:
    """dst[idx[i, f], f] += src[i, f] for every element of src [M, F], row by
    row; idx is [M, 1] (whole rows) or [M, F].  dst and src are contiguous."""
    nf = dst.shape[1]
    flat = np.multiply(idx, nf, out=ws.flat[: len(src)])
    flat += np.arange(nf)
    np.add.at(dst.reshape(-1), flat.reshape(-1), src.reshape(-1))


def _embed_conv1(emb: np.ndarray, w: np.ndarray, b: np.ndarray, xb: np.ndarray, ws: _Workspace):
    """Embedding lookup followed by conv1 (same padding), folded together, at
    the positions that pooling reads.

    xb: [B, L] token indices, emb: [V, E], w: [F, K, E].  With U the
    batch's distinct tokens, T = emb[U] . w has shape [U, K, F], and the
    output at position l is b + the sum over off of T[token at l + off -
    pad, off]; a position outside the sequence contributes 0 (a zero row
    appended to T).  That output depends only on the window of K tokens
    around l, so it is computed once per distinct window.  Returns z [N,
    F], one row per window of ws.taps1, a view into ws.z1; ws.inv1 [B, L
    rounded down to even] holds each position's window.
    """
    nf, k, e = w.shape
    pad = (k - 1) // 2
    bsz, length = xb.shape
    uniq, inv = np.unique(xb, return_inverse=True)
    n_uniq = len(uniq)
    ws.uniq = uniq
    eu = np.take(emb, uniq, axis=0, out=ws.eu[:n_uniq], mode="clip")
    np.copyto(ws.wr.reshape(k, nf, e), w.transpose(1, 0, 2))  # row off * F + f
    t = ws.t[: n_uniq + 1]
    np.matmul(eu, ws.wr.T, out=t[:-1])
    t[-1] = 0.0
    t = t.reshape(-1, nf)  # row u * K + off; the last K rows are 0
    # rows[n, j] is the distinct-token index at position j - pad, or U where
    # j - pad lies outside the sequence.
    rows = ws.rows1[:bsz]
    rows.fill(n_uniq)
    rows[:, pad : pad + length] = inv.reshape(xb.shape)
    ws.taps1, ws.inv1 = _window_ids(rows, length // 2 * 2, n_uniq + 1)
    z = ws.z1[: len(ws.taps1[0])]
    np.copyto(z, b)
    for off, tap in enumerate(ws.taps1):
        z += np.take(t, tap * k + off, axis=0, out=ws.gathered[: len(z)], mode="clip")
    return z


def _embed_conv1_backward(w: np.ndarray, ws: _Workspace, grads: dict) -> None:
    """Gradients of `_embed_conv1` into grads' embedding, conv1_w and conv1_b.

    dz, one row per window, is in ws.da1.  dT[u, off] is the sum of dz over
    the windows whose tap off reads token u.  U holds each token once, so
    d embedding[U] = dT . w^T needs no scatter-add.
    """
    uniq = ws.uniq
    n_uniq = len(uniq)
    nf, k, e = w.shape
    dz = ws.da1[: len(ws.taps1[0])]
    dt = ws.dt[: (n_uniq + 1) * k]  # row u * K + off; token U lies outside the sequence
    dt.fill(0.0)
    for off, tap in enumerate(ws.taps1):
        _scatter_add(dt, (tap * k + off)[:, None], dz, ws)
    dt = dt[: n_uniq * k].reshape(n_uniq, k * nf)
    dembedding = grads["embedding"]
    dembedding.fill(0.0)
    # Rows of the distinct tokens, each once.
    dembedding[uniq] = np.matmul(dt, ws.wr, out=ws.deu[:n_uniq])
    np.matmul(dt.T, ws.eu[:n_uniq], out=ws.dwr)
    np.copyto(grads["conv1_w"], ws.dwr.reshape(k, nf, e).transpose(1, 0, 2))
    np.sum(dz, axis=0, out=grads["conv1_b"])


def _pool2(a: np.ndarray, inv: np.ndarray, out: np.ndarray, mask: np.ndarray, ws: _Workspace):
    """Max pool width 2 stride 2 over the positions inv [B, 2M] of the nodes a,
    once per distinct pair of nodes.

    Writes the pooled nodes into out and sets mask True where the pair's
    first node won; ties go to the first, as argmax would.  Returns
    (first, second, inv) of the pairs, as `_pair_ids` does.
    """
    first, second, pinv = _pair_ids(inv[:, 0::2], inv[:, 1::2], len(a))
    m = len(first)
    x = np.take(a, first, axis=0, out=ws.left[:m], mode="clip")
    y = np.take(a, second, axis=0, out=ws.right[:m], mode="clip")
    np.maximum(x, y, out=out[:m])
    np.greater_equal(x, y, out=mask[:m])
    return first, second, pinv


def _pool2_backward(dout: np.ndarray, pairs, mask: np.ndarray, dx: np.ndarray, ws: _Workspace):
    """Adds each pooled node's gradient in dout to the node that won it, in dx."""
    first, second, _ = pairs
    m = len(first)
    routed = ws.left[:m]
    routed.fill(0.0)
    np.copyto(routed, dout, where=mask[:m])
    _scatter_add(dx, first[:, None], routed, ws)
    np.copyto(routed, dout)
    np.copyto(routed, 0.0, where=mask[:m])
    _scatter_add(dx, second[:, None], routed, ws)


def _conv2(p1: np.ndarray, taps, w: np.ndarray, b: np.ndarray, block: int, ws: _Workspace):
    """The same-padded conv2 once per distinct window of pooled nodes.

    p1 [N + 1, C]: the pooled nodes and a zero last row for positions
    outside the sequence; taps: K arrays of row indices into p1; w [F, K,
    C].  Returns z [len(taps[0]), F], a view into ws.z2.  The products run
    as GEMMs of `block` rows (the last one padded) against w[:, off, :].T.
    With `block` = L / 2, that is the GEMM a convolution of one index row
    runs, and OpenBLAS's small-matrix kernel rounds otherwise than its
    large one, so each value gets the bits a per-row convolution gives it.
    """
    nf = w.shape[0]
    n = len(taps[0])
    n_pad = -(-n // block) * block
    z, x = ws.z2[:n_pad], ws.x2[:n_pad]
    np.copyto(z, b)
    x[n:] = 0.0
    for off, tap in enumerate(taps):
        np.take(p1, tap, axis=0, out=x[:n], mode="clip")
        z += np.matmul(
            x.reshape(-1, block, nf), w[:, off, :].T, out=ws.prod[:n_pad].reshape(-1, block, nf)
        ).reshape(n_pad, nf)
    return z[:n]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; each side takes the form that is exact there.
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def _forward_batch(model: SiameseModel, xb: np.ndarray, ws: _Workspace) -> np.ndarray:
    """[len(xb), DENSE_DIM] embeddings of the index rows xb, computed in ws."""
    p = model.params
    if xb.min() < 0 or xb.max() >= model.vocab_size:
        raise ValueError(f"index outside [0, {model.vocab_size}) in input batch")
    n, length = xb.shape
    half = length // 2
    pad = (KERNEL_WIDTH - 1) // 2
    z1 = _embed_conv1(p["embedding"], p["conv1_w"], p["conv1_b"], xb, ws)
    a1 = np.maximum(z1, 0.0, out=ws.gathered[: len(z1)])
    ws.pool1 = _pool2(a1, ws.inv1, ws.p1, ws.mask1, ws)
    n_pool1 = len(ws.pool1[0])
    p1 = ws.p1[: n_pool1 + 1]
    p1[-1] = 0.0
    rows = ws.rows2[:n]
    rows.fill(n_pool1)
    rows[:, pad : pad + half] = ws.pool1[2]
    ws.taps2, inv2 = _window_ids(rows, length // 4 * 2, n_pool1 + 1)
    z2 = _conv2(p1, ws.taps2, p["conv2_w"], p["conv2_b"], half, ws)
    a2 = np.maximum(z2, 0.0, out=ws.prod[: len(z2)])
    ws.pool2 = _pool2(a2, inv2, ws.p2, ws.mask2, ws)
    # Each row's pooled positions, read through their nodes.
    rowmax = np.take(ws.p2, ws.pool2[2], axis=0, out=ws.rowmax[:n], mode="clip")
    gmax = np.max(rowmax, axis=1, out=ws.gmax[:n])
    zd = np.matmul(gmax, p["dense_w"], out=ws.zd[:n])
    zd += p["dense_b"]
    return _sigmoid(zd)


def _backward_batch(
    model: SiameseModel, ws: _Workspace, out: np.ndarray, dout: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of the batch `_forward_batch` last ran in ws, given out and
    dL/d out; the values are views into ws.grad.  Each node's gradient is
    the sum over the positions it stands for, added once per node."""
    p, grads = model.params, ws.grads
    n = len(out)
    dzd = dout * out * (1.0 - out)
    np.matmul(ws.gmax[:n].T, dzd, out=grads["dense_w"])
    np.sum(dzd, axis=0, out=grads["dense_b"])
    dgmax = dzd @ p["dense_w"].T  # [B, F]
    # A row's max gradient goes to the node at its first position reaching the max.
    winners = np.take_along_axis(ws.pool2[2], ws.rowmax[:n].argmax(axis=1), axis=1)
    dp2 = ws.dp2[: len(ws.pool2[0])]
    dp2.fill(0.0)
    _scatter_add(dp2, winners, dgmax, ws)
    n_conv2 = len(ws.taps2[0])
    dz2 = ws.da2[:n_conv2]
    dz2.fill(0.0)
    _pool2_backward(dp2, ws.pool2, ws.mask2, dz2, ws)
    dz2 *= np.greater(ws.z2[:n_conv2], 0, out=ws.pos2[:n_conv2])
    n_pool1 = len(ws.pool1[0])
    p1, dp1 = ws.p1[: n_pool1 + 1], ws.dp1[: n_pool1 + 1]
    dp1.fill(0.0)
    x, g = ws.x2[:n_conv2], ws.prod[:n_conv2]
    w2 = p["conv2_w"]
    for off, tap in enumerate(ws.taps2):
        np.take(p1, tap, axis=0, out=x, mode="clip")
        np.matmul(dz2.T, x, out=grads["conv2_w"][:, off, :])
        _scatter_add(dp1, tap[:, None], np.matmul(dz2, w2[:, off, :], out=g), ws)
    np.sum(dz2, axis=0, out=grads["conv2_b"])
    n_conv1 = len(ws.taps1[0])
    dz1 = ws.da1[:n_conv1]
    dz1.fill(0.0)
    _pool2_backward(dp1[:n_pool1], ws.pool1, ws.mask1, dz1, ws)
    dz1 *= np.greater(ws.z1[:n_conv1], 0, out=ws.pos1[:n_conv1])
    _embed_conv1_backward(p["conv1_w"], ws, grads)
    return grads


def embed_batch(model: SiameseModel, xs: list[tuple[int, ...]]) -> np.ndarray:
    """[len(xs), DENSE_DIM] embeddings; an empty list gives an empty array."""
    if not xs:
        return np.empty((0, DENSE_DIM))
    xb = _as_batch(xs)
    return _forward_batch(model, xb, _Workspace(*xb.shape, model.vocab_size))


def similarity_from_embeddings(ea: np.ndarray, eb: np.ndarray) -> np.ndarray:
    """exp(-L1 distance) over the last axis of embeddings that broadcast
    together; in (0, 1].  Two single embeddings give a scalar."""
    return np.exp(-np.abs(ea - eb).sum(axis=-1))


def pair_loss(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Binary cross-entropy of each clamped pair probability p against its label y."""
    pc = np.clip(p, LOSS_EPS, 1.0 - LOSS_EPS)
    return -(y * np.log(pc) + (1 - y) * np.log(1.0 - pc))


def sample_pairs(
    examples: list[tuple[tuple[int, ...], str]], seed: int, n_pairs: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Balanced positive/negative pairs (within one), uniformly sampled, as
    `(a, b, y)`: int64 [n, max_len] index rows of each side and float64 [n]
    labels, the positives (1.0) first."""
    by_class: dict[str, list[int]] = {}
    for row, (_, label) in enumerate(examples):
        by_class.setdefault(label, []).append(row)
    classes = sorted(by_class)
    if len(classes) < 2:
        raise ValueError("pair sampling needs at least two classes")
    rng = np.random.default_rng(seed)
    n_pos = (n_pairs + 1) // 2
    rows: list[tuple[int, int]] = []
    for _ in range(n_pos):
        members = by_class[classes[rng.integers(len(classes))]]
        if len(members) == 1:
            i = j = 0
        else:
            i, j = rng.choice(len(members), size=2, replace=False)
        rows.append((members[i], members[j]))
    for _ in range(n_pairs - n_pos):
        ca, cb = rng.choice(len(classes), size=2, replace=False)
        a, b = by_class[classes[ca]], by_class[classes[cb]]
        rows.append((a[rng.integers(len(a))], b[rng.integers(len(b))]))
    xs = _as_batch([x for x, _ in examples])
    ia, ib = np.array(rows, dtype=np.int64).reshape(-1, 2).T
    return xs[ia], xs[ib], (np.arange(len(rows)) < n_pos).astype(np.float64)


def _pair_grads_and_loss(model: SiameseModel, ab, bb, yb, ws: _Workspace | None = None):
    """Gradients summed over the pairs (views into ws.grad) and each pair's loss.

    Without ws, the call builds a workspace of its own.
    """
    bsz = len(ab)
    if ws is None:
        ws = _Workspace(2 * bsz, ab.shape[1], model.vocab_size, backward=True)
    # Both twins run as one 2B batch: one forward, one backward.
    xb = ws.xb[: 2 * bsz]
    xb[:bsz], xb[bsz:] = ab, bb
    out = _forward_batch(model, xb, ws)
    out_a, out_b = out[:bsz], out[bsz:]
    diff = out_a - out_b
    l1 = np.abs(diff).sum(axis=1)
    p = np.exp(-l1)
    losses = pair_loss(p, yb)
    # dL/dp is zero where the clamp is active.
    pc = np.clip(p, LOSS_EPS, 1.0 - LOSS_EPS)
    dp = np.where(
        (p > LOSS_EPS) & (p < 1.0 - LOSS_EPS), -yb / pc + (1 - yb) / (1.0 - pc), 0.0
    )
    dl1 = dp * -p
    dout = ws.dout[: 2 * bsz]
    np.multiply(dl1[:, None], np.sign(diff), out=dout[:bsz])
    np.negative(dout[:bsz], out=dout[bsz:])
    return _backward_batch(model, ws, out, dout), losses


def _adam_step(model: SiameseModel, m, v, ws: _Workspace, batch_size: int, step: int) -> None:
    """One Adam step (Kingma & Ba 2015) on `model.flat` from the gradients in
    ws.grad, which it scales in place; moments m, v update in place.

    Adam is element-wise, so each element gets the per-tensor expressions in
    the same order, hence the same bits.  The step's vectors are ws.adam,
    so a step allocates nothing in proportion to the model.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    g = ws.grad
    g /= batch_size
    tmp, den = ws.adam
    m *= beta1
    m += np.multiply(1 - beta1, g, out=tmp)
    v *= beta2
    tmp = np.multiply(1 - beta2, g, out=tmp)
    tmp *= g
    v += tmp
    # flat -= lr * mhat / (sqrt(vhat) + eps), one operation at a time.
    mhat = np.divide(m, 1 - beta1**step, out=tmp)
    vhat = np.divide(v, 1 - beta2**step, out=den)
    mhat *= model.hyper.learning_rate
    den = np.sqrt(vhat, out=den)
    den += eps
    mhat /= den
    model.flat -= mhat


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS at one thread, then restore
    the thread count it had.

    A multi-threaded GEMM sums partial products in an order that depends
    on the thread count, so without the pin the trained bytes would too.
    The setting is process-wide: BLAS work that another thread runs
    meanwhile also gets one thread.  When numpy's OpenBLAS or its
    thread-count functions are not found (another BLAS), nothing is pinned.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*.so*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            set_threads = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if set_threads is not None and get_threads is not None:
                get_threads.restype = ctypes.c_int
                before = get_threads()
                set_threads(1)
                try:
                    yield
                finally:
                    set_threads(before)
                return
    yield


def train(
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
    hyper: Hyper,
    vocab_size: int,
) -> SiameseModel:
    """Adam-trained model on the `(a, b, y)` arrays of `sample_pairs`;
    identical (seed, hyper, pairs) give identical bytes.

    Training runs with numpy's bundled OpenBLAS pinned to one thread, so
    the bytes do not depend on the BLAS thread count; see `_one_blas_thread`
    for when no pin is possible and for the process-wide side effect.
    """
    a_all, b_all, y_all = pairs
    if not (y_all == 1).any():
        raise ValueError("training needs at least one positive pair")
    if not (y_all == 0).any():
        raise ValueError("training needs at least one negative pair")
    model = init_model(vocab_size, hyper)
    rng = np.random.default_rng(hyper.seed + 1)
    n_pairs = len(y_all)
    ws = _Workspace(
        2 * min(hyper.batch_size, n_pairs), a_all.shape[1], vocab_size, backward=True
    )

    m = np.zeros_like(model.flat)
    v = np.zeros_like(model.flat)
    step = 0
    with _one_blas_thread():
        for _ in range(hyper.epochs):
            order = rng.permutation(n_pairs)
            epoch_loss = 0.0
            for at in range(0, n_pairs, hyper.batch_size):
                sel = order[at : at + hyper.batch_size]
                _, losses = _pair_grads_and_loss(model, a_all[sel], b_all[sel], y_all[sel], ws)
                epoch_loss += float(losses.sum())
                step += 1
                _adam_step(model, m, v, ws, len(sel), step)
            model.loss_trace.append(epoch_loss / n_pairs)
    return model


# ---------------------------------------------------------------------------
# Serialization: header, the flat parameter vector as little-endian float64,
# then the sha256 of both, which `load_model` checks.


def save_model(model: SiameseModel, path: str) -> None:
    head = MAGIC + _HEADER.pack(
        FORMAT_VERSION,
        model.vocab_size,
        model.hyper.max_len,
        model.hyper.seed,
        model.hyper.learning_rate,
        model.hyper.epochs,
        model.hyper.batch_size,
    )
    body = np.ascontiguousarray(model.flat, dtype="<f8").tobytes()
    digest = hashlib.sha256(head + body).digest()
    with open(path, "wb") as fh:
        fh.write(head + body + digest)


def load_model(path: str) -> SiameseModel:
    """Errors name `path`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        if blob[: len(MAGIC)] != MAGIC:
            raise ValueError("not a serialized twin-network model")
        off = len(MAGIC) + _HEADER.size
        if len(blob) < off + 32:
            raise ValueError(f"model file is truncated ({len(blob)} bytes)")
        version, vocab_size, max_len, seed, lr, epochs, batch = _HEADER.unpack_from(blob, len(MAGIC))
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {version}")
        n_params = _n_params(vocab_size)
        if len(blob) != off + 8 * n_params + 32:
            raise ValueError(f"model file has {len(blob)} bytes, not {off + 8 * n_params + 32}")
        if hashlib.sha256(blob[:-32]).digest() != blob[-32:]:
            raise ValueError("model file is corrupt (hash mismatch)")
        # astype copies, so the loaded parameters are writable.
        flat = np.frombuffer(blob, dtype="<f8", count=n_params, offset=off).astype(np.float64)
        hyper = Hyper(
            max_len=max_len, seed=seed, learning_rate=lr, epochs=epochs, batch_size=batch
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return SiameseModel(flat, hyper, vocab_size)
