"""The per-position twin-network passes that `tsgkit.siamese` replaced.

Every layer runs on every position: conv1 reads a table of the batch's
distinct tokens, conv2 is K shifted matmuls over a zero-edged copy of its
input, the max-pools and the global max work position by position, and the
backward pass routes each position's gradient, summing conv1's per token
with a segment sum.  The arithmetic is the replaced code's, operation for
operation, on fresh arrays instead of a workspace.  Tests hold the
node-wise passes to it: the forward bit for bit, the gradients within
rounding.
"""

import numpy as np

from tsgkit.siamese import LOSS_EPS, _sigmoid, pair_loss


def _conv_same(xp, w, b):
    """Same-padded convolution of xp [B, L + K - 1, C] (zero edges) by w [F, K, C]."""
    length = xp.shape[1] - w.shape[1] + 1
    out = np.empty((len(xp), length, w.shape[0]))
    np.copyto(out, b)
    for off in range(w.shape[1]):
        out += np.matmul(xp[:, off : off + length, :], w[:, off, :].T)
    return out


def _pool2(x):
    """Max pool width 2 stride 2 over axis 1, and where the first element won."""
    half = x.shape[1] // 2
    first, second = x[:, 0 : half * 2 : 2, :], x[:, 1 : half * 2 : 2, :]
    return np.maximum(first, second), np.greater_equal(first, second)


def _pool2_backward(dout, mask, length):
    """Each window's gradient at its winner, shaped as a pool input of `length`."""
    out = np.zeros((len(dout), length, dout.shape[2]))
    half = dout.shape[1]
    first, second = out[:, 0 : half * 2 : 2, :], out[:, 1 : half * 2 : 2, :]
    np.copyto(first, dout, where=mask)
    np.copyto(second, dout)
    np.copyto(second, 0.0, where=mask)
    return out


def forward(params, xb):
    """[len(xb), 128] embeddings and the per-position values `backward` reads."""
    emb, w, b = params["embedding"], params["conv1_w"], params["conv1_b"]
    nf, k, e = w.shape
    pad = (k - 1) // 2
    bsz, length = xb.shape
    uniq, inv = np.unique(xb, return_inverse=True)
    inv = inv.reshape(xb.shape)
    n_uniq = len(uniq)
    eu = emb[uniq]
    wr = np.empty((k * nf, e))
    np.copyto(wr.reshape(k, nf, e), w.transpose(1, 0, 2))
    t = np.empty((n_uniq + 1, k * nf))
    np.matmul(eu, wr.T, out=t[:-1])
    t[-1] = 0.0
    t = t.reshape(-1, nf)
    rows = np.full((bsz, length + k - 1), k * n_uniq)
    rows[:, pad : pad + length] = inv * k
    z1 = np.empty((bsz, length, nf))
    np.copyto(z1, b)
    for off in range(k):
        z1 += t[rows[:, off : off + length] + off]
    p1, mask1 = _pool2(np.maximum(z1, 0.0))
    half = p1.shape[1]
    xp2 = np.zeros((bsz, half + k - 1, nf))
    xp2[:, pad : pad + half] = p1
    z2 = _conv_same(xp2, params["conv2_w"], params["conv2_b"])
    p2, mask2 = _pool2(np.maximum(z2, 0.0))
    gmax = np.max(p2, axis=1)
    zd = np.matmul(gmax, params["dense_w"])
    zd += params["dense_b"]
    saved = dict(
        uniq=uniq, inv=inv, eu=eu, wr=wr, z1=z1, mask1=mask1, xp2=xp2, z2=z2,
        mask2=mask2, p2=p2, gmax=gmax,
    )
    return _sigmoid(zd), saved


def backward(params, saved, out, dout):
    """Gradients of the batch `forward` ran, given out and dL/d out."""
    grads = {}
    n = len(out)
    dzd = dout * out * (1.0 - out)
    grads["dense_w"] = np.matmul(saved["gmax"].T, dzd)
    grads["dense_b"] = np.sum(dzd, axis=0)
    dgmax = dzd @ params["dense_w"].T
    p2 = saved["p2"]
    dp2 = np.zeros(p2.shape)
    b_ix, f_ix = np.ogrid[:n, : dgmax.shape[1]]
    dp2[b_ix, p2.argmax(axis=1), f_ix] = dgmax
    z2 = saved["z2"]
    dz2 = _pool2_backward(dp2, saved["mask2"], z2.shape[1]) * (z2 > 0)
    # conv2: K shifted matmuls against the zero-edged input.
    w2, xp2 = params["conv2_w"], saved["xp2"]
    nf, k, _ = w2.shape
    pad = (k - 1) // 2
    bsz, length, _ = dz2.shape
    dflat = dz2.reshape(bsz * length, nf)
    grads["conv2_w"] = np.empty(w2.shape)
    dxp = np.zeros(xp2.shape)
    for off in range(k):
        cols = np.ascontiguousarray(xp2[:, off : off + length, :])
        np.matmul(dflat.T, cols.reshape(bsz * length, -1), out=grads["conv2_w"][:, off, :])
        dxp[:, off : off + length, :] += np.matmul(dz2, w2[:, off, :])
    grads["conv2_b"] = np.sum(dflat, axis=0)
    z1 = saved["z1"]
    dz1 = _pool2_backward(dxp[:, pad : pad + length, :], saved["mask1"], z1.shape[1]) * (z1 > 0)
    # conv1: a segment sum over the positions sorted by token.
    w1, uniq, inv = params["conv1_w"], saved["uniq"], saved["inv"]
    nf, k, e = w1.shape
    length1 = inv.shape[1]
    dzp = np.zeros((bsz, length1 + k - 1, nf))
    dzp[:, k - 1 - pad : k - 1 - pad + length1] = dz1
    dzp = dzp.reshape(-1, nf)
    n_ix, p_ix = np.divmod(np.argsort(inv, axis=None, kind="stable"), length1)
    base = n_ix * (length1 + k - 1) + p_ix + (k - 1)
    counts = np.bincount(inv.ravel())
    starts = np.cumsum(counts) - counts
    dt = np.empty((len(uniq), k, nf))
    for off in range(k):
        dt[:, off, :] = np.add.reduceat(dzp[base - off], starts, axis=0)
    dt = dt.reshape(len(uniq), k * nf)
    grads["embedding"] = np.zeros(params["embedding"].shape)
    grads["embedding"][uniq] = np.matmul(dt, saved["wr"])
    grads["conv1_w"] = np.matmul(dt.T, saved["eu"]).reshape(k, nf, e).transpose(1, 0, 2)
    grads["conv1_b"] = np.sum(dz1, axis=(0, 1))
    return grads


def pair_grads_and_loss(params, ab, bb, yb):
    """Gradients summed over the pairs and each pair's loss, both twins as one batch."""
    bsz = len(ab)
    out, saved = forward(params, np.concatenate([ab, bb]))
    diff = out[:bsz] - out[bsz:]
    p = np.exp(-np.abs(diff).sum(axis=1))
    pc = np.clip(p, LOSS_EPS, 1.0 - LOSS_EPS)
    dp = np.where(
        (p > LOSS_EPS) & (p < 1.0 - LOSS_EPS), -yb / pc + (1 - yb) / (1.0 - pc), 0.0
    )
    dl1 = dp * -p
    dout = np.empty(out.shape)
    np.multiply(dl1[:, None], np.sign(diff), out=dout[:bsz])
    np.negative(dout[:bsz], out=dout[bsz:])
    return backward(params, saved, out, dout), pair_loss(p, yb)
