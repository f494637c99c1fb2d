"""Twin embedding network trained on statement pairs, from scratch in numpy.

Architecture: embedding lookup -> conv(width 3, 64 filters, same padding)
-> ReLU -> max pool(2,2) -> conv -> ReLU -> max pool(2,2) -> global max
-> dense(128) -> sigmoid.  Pair similarity is exp(-L1) between the two
embeddings; training minimizes binary cross-entropy with Adam.  All
arithmetic is float64 and fully deterministic given the seed.

The embedding is folded into the first conv: it is computed once per
distinct token of the batch (`_embed_conv1`), and its backward pass is a
segment sum over those tokens, so no gradient is scatter-added.  A
training step runs both twins of its B pairs as one 2B batch.

Every large array that a forward pass, a backward pass and an Adam step
write lives in a `_Workspace`: one per fit, sized for the largest batch,
and one forward-only workspace per `embed_batch` call.  A smaller batch
uses leading-axis views, and the layers write with `out=`, `np.copyto`
and in-place operations.  The reason is the C allocator: when a step
frees ~1 MB activations, it returns the top of the heap to the system,
and the next step page-faults it back in, which cost 70k-375k minor
faults and about a fifth of the time of a `perfbench train` fit.  The
workspace computes each value with the operations fresh arrays would
get, on the same operands in the same order, so the trained bytes do not
depend on it.
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

    Holds the forward buffers and, with `backward`, the backward buffers,
    one flat gradient vector `grad` in `_layout` order (`grads` holds its
    per-tensor views) and Adam's two temporaries.  `xp2`, conv2's input,
    and `dz1p`, conv1's output gradient, have the convolutions' same
    padding as zero edges; `p1` and `dz1` are their interiors.  Nothing
    writes the edges, nor the odd tail that pooling drops from `da2` and
    `dz1`, so they stay zero.  `scratch1` and `scratch2` hold one layer's
    short-lived values in turn: gathered conv1 taps or conv2 products, then
    the ReLU output that pooling reads at once, then, in the backward pass,
    gathered gradient rows or conv2 products again.  A forward pass leaves
    the batch's distinct tokens in `uniq` and `inv` for the backward pass.
    """

    def __init__(self, n: int, length: int, vocab_size: int, backward: bool = False):
        k, nf, e = KERNEL_WIDTH, CONV_FILTERS, EMBED_DIM
        pad = (k - 1) // 2
        half, quarter = length // 2, length // 4
        n_uniq = min(vocab_size, n * length)  # most distinct tokens in a batch
        self.eu = np.empty((n_uniq, e))
        self.wr = np.empty((k * nf, e))
        self.t = np.empty((n_uniq + 1, k * nf))
        self.rows = np.empty((n, length + k - 1), dtype=np.int64)
        self.taps = np.empty((n, length), dtype=np.int64)
        self.scratch1 = np.empty((n, length, nf))
        self.z1 = np.empty((n, length, nf))
        self.mask1 = np.empty((n, half, nf), dtype=bool)
        self.xp2 = np.zeros((n, half + k - 1, nf))
        self.p1 = self.xp2[:, pad : pad + half]
        self.z2 = np.empty((n, half, nf))
        self.scratch2 = np.empty((n, half, nf))
        self.mask2 = np.empty((n, quarter, nf), dtype=bool)
        self.p2 = np.empty((n, quarter, nf))
        self.gmax = np.empty((n, nf))
        self.zd = np.empty((n, DENSE_DIM))
        if not backward:
            return
        self.xb = np.empty((n, length), dtype=np.int64)
        self.dout = np.empty((n, DENSE_DIM))
        self.grad = np.empty(_n_params(vocab_size))
        self.grads = _views(self.grad, vocab_size)
        self.adam = np.empty((2, self.grad.size))
        self.dp2 = np.empty((n, quarter, nf))
        self.da2 = np.zeros((n, half, nf))
        self.pos2 = np.empty((n, half, nf), dtype=bool)
        self.cols = np.empty((n, half, nf))
        self.dxp = np.empty((n, half + k - 1, nf))
        self.dz1p = np.zeros((n, length + k - 1, nf))
        self.dz1 = self.dz1p[:, k - 1 - pad : k - 1 - pad + length]
        self.pos1 = np.empty((n, length, nf), dtype=bool)
        self.dt = np.empty((n_uniq, k, nf))
        self.deu = np.empty((n_uniq, e))
        self.dwr = np.empty((k * nf, e))


def _conv_same(xp, w, b, out, tmp) -> np.ndarray:
    """xp: [B, L + K - 1, C_in], the input with zero edges; w: [F, K, C_in].

    Writes the same-padded convolution into out [B, L, F] and returns it;
    tmp [B, L, F] is scratch.  Computed as K shifted matmuls to avoid
    materializing im2col windows.
    """
    length = out.shape[1]
    np.copyto(out, b)
    for off in range(w.shape[1]):
        out += np.matmul(xp[:, off : off + length, :], w[:, off, :].T, out=tmp)
    return out


def _conv_backward(dout, xp, w, dw, db, ws: _Workspace) -> np.ndarray:
    """Writes dw and db of `_conv_same`; returns dx, a view into ws.dxp."""
    k = w.shape[1]
    pad = (k - 1) // 2
    bsz, length, nf = dout.shape
    dflat = dout.reshape(bsz * length, nf)
    cols, tmp = ws.cols[:bsz], ws.scratch2[:bsz]
    dxp = ws.dxp[:bsz]
    dxp.fill(0.0)
    for off in range(k):
        np.copyto(cols, xp[:, off : off + length, :])
        np.matmul(dflat.T, cols.reshape(bsz * length, -1), out=dw[:, off, :])
        dxp[:, off : off + length, :] += np.matmul(dout, w[:, off, :], out=tmp)
    np.sum(dflat, axis=0, out=db)
    return dxp[:, pad : pad + length, :]


def _embed_conv1(emb: np.ndarray, w: np.ndarray, b: np.ndarray, xb: np.ndarray, ws: _Workspace):
    """Embedding lookup followed by conv1 (same padding), folded together.

    xb: [B, L] token indices, emb: [V, E], w: [F, K, E] -> z [B, L, F].
    With U the batch's distinct tokens, T = emb[U] . w has shape [U, K, F]
    and z[n, l] = b + sum over off of T[token at l + off - pad, off]; a
    position outside the sequence contributes 0 (a zero row appended to T).
    A token costs one row of T however often it occurs, so padding-heavy
    batches do far fewer FLOPs than K shifted matmuls over every position.
    Returns z, a view into ws.z1, and leaves in ws what
    `_embed_conv1_backward` needs.
    """
    nf, k, e = w.shape
    pad = (k - 1) // 2
    bsz, length = xb.shape
    uniq, inv = np.unique(xb, return_inverse=True)
    n_uniq = len(uniq)
    ws.uniq, ws.inv = uniq, inv.reshape(xb.shape)
    eu = np.take(emb, uniq, axis=0, out=ws.eu[:n_uniq], mode="clip")
    np.copyto(ws.wr.reshape(k, nf, e), w.transpose(1, 0, 2))  # row off * F + f
    t = ws.t[: n_uniq + 1]
    np.matmul(eu, ws.wr.T, out=t[:-1])
    t[-1] = 0.0
    t = t.reshape(-1, nf)  # row u * K + off; the last K rows are 0
    # rows[n, j] = K * (distinct-token index at position j - pad), or K * U
    # where j - pad lies outside the sequence.
    rows = ws.rows[:bsz]
    rows.fill(k * n_uniq)
    np.multiply(ws.inv, k, out=rows[:, pad : pad + length])
    z = ws.z1[:bsz]
    np.copyto(z, b)
    taps, gathered = ws.taps[:bsz], ws.scratch1[:bsz]
    for off in range(k):
        np.add(rows[:, off : off + length], off, out=taps)
        z += np.take(t, taps, axis=0, out=gathered, mode="clip")
    return z


def _embed_conv1_backward(w: np.ndarray, ws: _Workspace, grads: dict) -> None:
    """Gradients of `_embed_conv1` into grads' embedding, conv1_w and conv1_b.

    dz is in ws.dz1, inside the zero edges of ws.dz1p.  dT[u, off] is the
    sum of dz over the positions l whose tap off reads token u, a segment
    sum over the positions sorted by token.  U holds each token once, so
    d embedding[U] = dT . w^T needs no scatter-add.
    """
    uniq, inv = ws.uniq, ws.inv
    n_uniq = len(uniq)
    nf, k, e = w.shape
    bsz, length = inv.shape
    # Row n * (L + K - 1) + p + K - 1 - off of dzp is dz[n, p + pad - off],
    # or 0 where that position lies outside the sequence.
    dzp = ws.dz1p[:bsz].reshape(-1, nf)
    n_ix, p_ix = np.divmod(np.argsort(inv, axis=None, kind="stable"), length)
    base = n_ix * (length + k - 1) + p_ix + (k - 1)
    counts = np.bincount(inv.ravel())
    starts = np.cumsum(counts) - counts
    dt = ws.dt[:n_uniq]
    gathered = ws.scratch1[:bsz].reshape(bsz * length, nf)
    for off in range(k):
        np.take(dzp, base - off, axis=0, out=gathered, mode="clip")
        np.add.reduceat(gathered, starts, axis=0, out=dt[:, off, :])
    dt = dt.reshape(n_uniq, k * nf)
    dembedding = grads["embedding"]
    dembedding.fill(0.0)
    # Rows of the distinct tokens, each once.
    dembedding[uniq] = np.matmul(dt, ws.wr, out=ws.deu[:n_uniq])
    np.matmul(dt.T, ws.eu[:n_uniq], out=ws.dwr)
    np.copyto(grads["conv1_w"], ws.dwr.reshape(k, nf, e).transpose(1, 0, 2))
    np.sum(ws.dz1[:bsz], axis=(0, 1), out=grads["conv1_b"])


def _pool2(x: np.ndarray, out: np.ndarray, mask: np.ndarray) -> None:
    """Max pool width 2 stride 2 over axis 1 of x into out; odd tails are dropped.

    mask is set True where the first element of the window won; ties go to
    the first, as argmax would.
    """
    half = out.shape[1]
    first, second = x[:, 0 : half * 2 : 2, :], x[:, 1 : half * 2 : 2, :]
    np.maximum(first, second, out=out)
    np.greater_equal(first, second, out=mask)


def _pool2_backward(dout: np.ndarray, mask: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Routes each window's gradient in dout to its winner in out, shaped as
    the pool's input, and returns out.  An odd tail of out is not written;
    the caller keeps it zero."""
    half = dout.shape[1]
    first, second = out[:, 0 : half * 2 : 2, :], out[:, 1 : half * 2 : 2, :]
    first.fill(0.0)
    np.copyto(first, dout, where=mask)
    np.copyto(second, dout)
    np.copyto(second, 0.0, where=mask)
    return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; each side takes the form that is exact there.
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def _forward_batch(model: SiameseModel, xb: np.ndarray, ws: _Workspace) -> np.ndarray:
    """[len(xb), DENSE_DIM] embeddings of the index rows xb, computed in ws."""
    p = model.params
    if xb.min() < 0 or xb.max() >= model.vocab_size:
        raise ValueError(f"index outside [0, {model.vocab_size}) in input batch")
    n = len(xb)
    z1 = _embed_conv1(p["embedding"], p["conv1_w"], p["conv1_b"], xb, ws)
    a1 = np.maximum(z1, 0.0, out=ws.scratch1[:n])
    _pool2(a1, ws.p1[:n], ws.mask1[:n])
    z2 = _conv_same(ws.xp2[:n], p["conv2_w"], p["conv2_b"], ws.z2[:n], ws.scratch2[:n])
    a2 = np.maximum(z2, 0.0, out=ws.scratch2[:n])
    p2 = ws.p2[:n]
    _pool2(a2, p2, ws.mask2[:n])
    gmax = np.max(p2, axis=1, out=ws.gmax[:n])
    zd = np.matmul(gmax, p["dense_w"], out=ws.zd[:n])
    zd += p["dense_b"]
    return _sigmoid(zd)


def _backward_batch(
    model: SiameseModel, ws: _Workspace, out: np.ndarray, dout: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of the batch `_forward_batch` last ran in ws, given out and
    dL/d out; the values are views into ws.grad."""
    p, grads = model.params, ws.grads
    n = len(out)
    dzd = dout * out * (1.0 - out)
    np.matmul(ws.gmax[:n].T, dzd, out=grads["dense_w"])
    np.sum(dzd, axis=0, out=grads["dense_b"])
    dgmax = dzd @ p["dense_w"].T  # [B, F]
    p2, dp2 = ws.p2[:n], ws.dp2[:n]
    dp2.fill(0.0)
    b_ix, f_ix = np.ogrid[:n, : dgmax.shape[1]]
    dp2[b_ix, p2.argmax(axis=1), f_ix] = dgmax
    da2 = _pool2_backward(dp2, ws.mask2[:n], ws.da2[:n])
    dz2 = np.multiply(da2, np.greater(ws.z2[:n], 0, out=ws.pos2[:n]), out=da2)
    dp1 = _conv_backward(dz2, ws.xp2[:n], p["conv2_w"], grads["conv2_w"], grads["conv2_b"], ws)
    da1 = _pool2_backward(dp1, ws.mask1[:n], ws.dz1[:n])
    np.multiply(da1, np.greater(ws.z1[:n], 0, out=ws.pos1[:n]), out=da1)
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
