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
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .vectorize import IndexSequence

EMBED_DIM = 100
CONV_FILTERS = 64
KERNEL_WIDTH = 3
DENSE_DIM = 128
LOSS_EPS = 1e-7

MAGIC = b"TSGSIAM1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<IQQQdQQ")


class IndexOutOfVocab(ValueError):
    pass


class NoPositivePairs(ValueError):
    pass


class NoNegativePairs(ValueError):
    pass


class SingleClassCorpus(ValueError):
    pass


@dataclass(frozen=True)
class Hyper:
    max_len: int = 64
    seed: int = 0
    learning_rate: float = 1e-3
    epochs: int = 30
    batch_size: int = 32


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
        self.params = {}
        at = 0
        for name, shape in _layout(self.vocab_size):
            size = math.prod(shape)
            self.params[name] = self.flat[at : at + size].reshape(shape)
            at += size


def init_model(vocab_size: int, hyper: Hyper) -> SiameseModel:
    # Two halvings of the position axis need at least 4 positions.
    if hyper.max_len < 4:
        raise ValueError("max_len must be >= 4")
    rng = np.random.default_rng(hyper.seed)
    # One draw gives the same values as one draw per tensor in layout order.
    flat = rng.uniform(-0.05, 0.05, size=_n_params(vocab_size))
    return SiameseModel(flat, hyper, vocab_size)


def _as_batch(xs: list[IndexSequence]) -> np.ndarray:
    return np.array([x.indices for x in xs], dtype=np.int64)


def _conv_same(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x: [B, L, C_in], w: [F, K, C_in] -> out [B, L, F]; returns (out, padded x).

    Computed as K shifted matmuls to avoid materializing im2col windows.
    """
    k = w.shape[1]
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (pad, k - 1 - pad), (0, 0)))
    length = x.shape[1]
    out = np.broadcast_to(b, (x.shape[0], length, w.shape[0])).copy()
    for off in range(k):
        out += xp[:, off : off + length, :] @ w[:, off, :].T
    return out, xp


def _conv_backward(dout, xp, w):
    k = w.shape[1]
    pad = (k - 1) // 2
    bsz, length, nf = dout.shape
    dflat = dout.reshape(bsz * length, nf)
    dw = np.empty_like(w)
    dxp = np.zeros_like(xp)
    for off in range(k):
        xs = xp[:, off : off + length, :].reshape(bsz * length, -1)
        dw[:, off, :] = dflat.T @ xs
        dxp[:, off : off + length, :] += dout @ w[:, off, :]
    db = dflat.sum(axis=0)
    dx = dxp[:, pad : pad + length, :]
    return dx, dw, db


def _embed_conv1(emb: np.ndarray, w: np.ndarray, b: np.ndarray, xb: np.ndarray):
    """Embedding lookup followed by conv1 (same padding), folded together.

    xb: [B, L] token indices, emb: [V, E], w: [F, K, E] -> z [B, L, F].
    With U the batch's distinct tokens, T = emb[U] . w has shape [U, K, F]
    and z[n, l] = b + sum over off of T[token at l + off - pad, off]; a
    position outside the sequence contributes 0 (a zero row appended to T).
    A token costs one row of T however often it occurs, so padding-heavy
    batches do far fewer FLOPs than K shifted matmuls over every position.
    Returns z and the cache `_embed_conv1_backward` needs.
    """
    nf, k, e = w.shape
    pad = (k - 1) // 2
    bsz, length = xb.shape
    uniq, inv = np.unique(xb, return_inverse=True)
    inv = inv.reshape(xb.shape)
    eu = emb[uniq]
    wr = w.transpose(1, 0, 2).reshape(k * nf, e)  # row off * F + f
    t = np.zeros((len(uniq) + 1, k * nf))
    t[:-1] = eu @ wr.T
    t = t.reshape(-1, nf)  # row u * K + off; the last K rows are 0
    # rows[n, j] = K * (distinct-token index at position j - pad), or K * U
    # where j - pad lies outside the sequence.
    rows = np.full((bsz, length + k - 1), k * len(uniq))
    rows[:, pad : pad + length] = k * inv
    z = np.broadcast_to(b, (bsz, length, nf)).copy()
    for off in range(k):
        z += t[rows[:, off : off + length] + off]
    return z, (uniq, inv, eu, wr)


def _embed_conv1_backward(dz: np.ndarray, cache, w: np.ndarray):
    """Gradients (rows of d embedding for U, dw, db) of `_embed_conv1`.

    dT[u, off] is the sum of dz over the positions l whose tap off reads
    token u, a segment sum over the positions sorted by token.  U holds
    each token once, so d embedding[U] = dT . w^T needs no scatter-add.
    """
    uniq, inv, eu, wr = cache
    nf, k, e = w.shape
    pad = (k - 1) // 2
    bsz, length, _ = dz.shape
    # Row n * (L + K - 1) + p + K - 1 - off of dzp is dz[n, p + pad - off],
    # or 0 where that position lies outside the sequence.
    dzp = np.pad(dz, ((0, 0), (k - 1 - pad, pad), (0, 0))).reshape(-1, nf)
    n_ix, p_ix = np.divmod(np.argsort(inv, axis=None, kind="stable"), length)
    base = n_ix * (length + k - 1) + p_ix + (k - 1)
    counts = np.bincount(inv.ravel())
    starts = np.cumsum(counts) - counts
    dt = np.empty((len(uniq), k, nf))
    for off in range(k):
        dt[:, off, :] = np.add.reduceat(dzp[base - off], starts, axis=0)
    dt = dt.reshape(len(uniq), k * nf)
    deu = dt @ wr
    dw = (dt.T @ eu).reshape(k, nf, e).transpose(1, 0, 2)
    db = dz.reshape(bsz * length, nf).sum(axis=0)
    return deu, dw, db


def _pool2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max pool width 2 stride 2 over axis 1; odd tails are dropped.

    Returns the pooled values and a mask that is True where the first
    element of the window won; ties go to the first, as argmax would.
    """
    length2 = x.shape[1] // 2
    first, second = x[:, 0 : length2 * 2 : 2, :], x[:, 1 : length2 * 2 : 2, :]
    return np.maximum(first, second), first >= second


def _pool2_backward(dout, mask, in_shape):
    length2 = dout.shape[1]
    full = np.zeros(in_shape)
    full[:, 0 : length2 * 2 : 2, :] = np.where(mask, dout, 0.0)
    full[:, 1 : length2 * 2 : 2, :] = np.where(mask, 0.0, dout)
    return full


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _forward_batch(model: SiameseModel, xb: np.ndarray, keep: bool = False):
    p = model.params
    if xb.min() < 0 or xb.max() >= model.vocab_size:
        raise IndexOutOfVocab(
            f"index outside [0, {model.vocab_size}) in input batch"
        )
    z1, c1 = _embed_conv1(p["embedding"], p["conv1_w"], p["conv1_b"], xb)
    a1 = np.maximum(z1, 0.0)
    p1, i1 = _pool2(a1)
    z2, xp2 = _conv_same(p1, p["conv2_w"], p["conv2_b"])
    a2 = np.maximum(z2, 0.0)
    p2, i2 = _pool2(a2)
    gmax = p2.max(axis=1)
    zd = gmax @ p["dense_w"] + p["dense_b"]
    out = _sigmoid(zd)
    if not keep:
        return out
    cache = dict(c1=c1, z1=z1, i1=i1, z2=z2, xp2=xp2, i2=i2, p2=p2, gmax=gmax, out=out)
    return out, cache


def _backward_batch(model: SiameseModel, cache: dict, dout: np.ndarray) -> dict[str, np.ndarray]:
    p = model.params
    out = cache["out"]
    dzd = dout * out * (1.0 - out)
    grads = {
        "dense_w": cache["gmax"].T @ dzd,
        "dense_b": dzd.sum(axis=0),
    }
    dgmax = dzd @ p["dense_w"].T  # [B, F]
    dp2 = np.zeros_like(cache["p2"])
    bsz, nf = dgmax.shape
    b_ix, f_ix = np.ogrid[:bsz, :nf]
    dp2[b_ix, cache["p2"].argmax(axis=1), f_ix] = dgmax
    da2 = _pool2_backward(dp2, cache["i2"], cache["z2"].shape)
    dz2 = da2 * (cache["z2"] > 0)
    dp1, dw2, db2 = _conv_backward(dz2, cache["xp2"], p["conv2_w"])
    grads["conv2_w"], grads["conv2_b"] = dw2, db2
    da1 = _pool2_backward(dp1, cache["i1"], cache["z1"].shape)
    dz1 = da1 * (cache["z1"] > 0)
    deu, dw1, db1 = _embed_conv1_backward(dz1, cache["c1"], p["conv1_w"])
    grads["conv1_w"], grads["conv1_b"] = dw1, db1
    dembedding = np.zeros_like(p["embedding"])
    dembedding[cache["c1"][0]] = deu  # rows of the distinct tokens, each once
    grads["embedding"] = dembedding
    return grads


def embed_batch(model: SiameseModel, xs: list[IndexSequence]) -> np.ndarray:
    """[len(xs), DENSE_DIM] embeddings; an empty list gives an empty array."""
    if not xs:
        return np.empty((0, DENSE_DIM))
    return _forward_batch(model, _as_batch(xs))


def similarity_from_embeddings(ea: np.ndarray, eb: np.ndarray) -> float:
    """exp(-L1 distance) between two embeddings; in (0, 1]."""
    return float(np.exp(-np.abs(ea - eb).sum()))


def pair_similarity(model: SiameseModel, a: IndexSequence, b: IndexSequence) -> float:
    """Similarity of the twin embeddings of a and b, each embedded on its own."""
    ea, eb = (embed_batch(model, [x])[0] for x in (a, b))
    return similarity_from_embeddings(ea, eb)


def pair_loss(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Binary cross-entropy of each clamped pair probability p against its label y."""
    pc = np.clip(p, LOSS_EPS, 1.0 - LOSS_EPS)
    return -(y * np.log(pc) + (1 - y) * np.log(1.0 - pc))


@dataclass(frozen=True)
class TrainingPair:
    a: IndexSequence
    b: IndexSequence
    label: int


def sample_pairs(
    examples: list[tuple[IndexSequence, str]], seed: int, n_pairs: int
) -> list[TrainingPair]:
    """Balanced positive/negative pairs (within one), uniformly sampled."""
    by_class: dict[str, list[IndexSequence]] = {}
    for x, label in examples:
        by_class.setdefault(label, []).append(x)
    classes = sorted(by_class)
    if len(classes) < 2:
        raise SingleClassCorpus("pair sampling needs at least two classes")
    rng = np.random.default_rng(seed)
    n_pos = (n_pairs + 1) // 2
    pairs: list[TrainingPair] = []
    for _ in range(n_pos):
        c = classes[rng.integers(len(classes))]
        members = by_class[c]
        if len(members) == 1:
            i = j = 0
        else:
            i, j = rng.choice(len(members), size=2, replace=False)
        pairs.append(TrainingPair(members[i], members[j], 1))
    for _ in range(n_pairs - n_pos):
        ca, cb = rng.choice(len(classes), size=2, replace=False)
        a = by_class[classes[ca]]
        b = by_class[classes[cb]]
        pairs.append(
            TrainingPair(a[rng.integers(len(a))], b[rng.integers(len(b))], 0)
        )
    return pairs


def _pair_grads_and_loss(model: SiameseModel, ab, bb, yb):
    # Both twins run as one 2B batch: one forward, one backward.
    out, cache = _forward_batch(model, np.concatenate([ab, bb]), keep=True)
    out_a, out_b = out[: len(ab)], out[len(ab) :]
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
    dout_a = dl1[:, None] * np.sign(diff)
    grads = _backward_batch(model, cache, np.concatenate([dout_a, -dout_a]))
    return grads, losses


def _adam_step(model: SiameseModel, m, v, grads: dict, batch_size: int, step: int) -> None:
    """One Adam step (Kingma & Ba 2015) on `model.flat`; moments m, v update in place.

    Adam is element-wise, so each element gets the per-tensor expressions in
    the same order, hence the same bits.  The step's vectors die on return;
    kept alive through the next forward pass (inline in `train`), they made
    `perfbench train` fits page-fault 1.5-1.7x as often.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    g = np.concatenate([grads[name].ravel() for name in model.params])
    g /= batch_size
    m *= beta1
    m += (1 - beta1) * g
    v *= beta2
    v += (1 - beta2) * g * g
    mhat = m / (1 - beta1**step)
    vhat = v / (1 - beta2**step)
    model.flat -= model.hyper.learning_rate * mhat / (np.sqrt(vhat) + eps)


def train(
    pairs: list[TrainingPair],
    hyper: Hyper,
    vocab_size: int,
) -> SiameseModel:
    """Adam-trained model; identical (seed, hyper, pairs) give identical bytes."""
    if not any(p.label == 1 for p in pairs):
        raise NoPositivePairs("training needs at least one positive pair")
    if not any(p.label == 0 for p in pairs):
        raise NoNegativePairs("training needs at least one negative pair")
    model = init_model(vocab_size, hyper)
    rng = np.random.default_rng(hyper.seed + 1)
    a_all = _as_batch([p.a for p in pairs])
    b_all = _as_batch([p.b for p in pairs])
    y_all = np.array([p.label for p in pairs], dtype=np.float64)

    m = np.zeros_like(model.flat)
    v = np.zeros_like(model.flat)
    step = 0
    for _ in range(hyper.epochs):
        order = rng.permutation(len(pairs))
        epoch_loss = 0.0
        for at in range(0, len(pairs), hyper.batch_size):
            sel = order[at : at + hyper.batch_size]
            grads, losses = _pair_grads_and_loss(
                model, a_all[sel], b_all[sel], y_all[sel]
            )
            epoch_loss += float(losses.sum())
            step += 1
            _adam_step(model, m, v, grads, len(sel), step)
        model.loss_trace.append(epoch_loss / len(pairs))
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
    with open(path, "rb") as fh:
        blob = fh.read()
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
    return SiameseModel(flat, hyper, vocab_size)
