import json
import math
import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import siamese_reference
import tsgkit
from conftest import golden_path
from tsgkit.config import data_path
from tsgkit.siamese import (
    CONV_FILTERS,
    DENSE_DIM,
    MAGIC,
    MAX_LEN_LIMIT,
    Hyper,
    SiameseModel,
    _adam_step,
    _as_batch,
    _forward_batch,
    _pair_grads_and_loss,
    _pair_ids,
    _pool2,
    _pool2_backward,
    _sigmoid,
    _Workspace,
    embed_batch,
    init_model,
    load_model,
    pair_loss,
    sample_pairs,
    save_model,
    similarity_from_embeddings,
    train,
)


def seq(*indices, max_len=8):
    return tuple(indices) + (0,) * (max_len - len(indices))


MINI = Hyper(max_len=8, seed=36)


@pytest.fixture(scope="module")
def mini_model():
    return init_model(10, MINI)


def zero_model(vocab_size=10, hyper=MINI) -> SiameseModel:
    model = init_model(vocab_size, hyper)
    for key in model.params:
        model.params[key][:] = 0.0
    return model


# --- forward pass ------------------------------------------------------------


def test_zero_network_embeds_to_half():
    out = embed_batch(zero_model(), [seq(1, 2, 3)])[0]
    assert out.shape == (128,)
    assert np.allclose(out, 0.5)


def test_embed_deterministic(mini_model):
    x = seq(2, 5, 3)
    a = embed_batch(mini_model, [x])[0]
    b = embed_batch(mini_model, [x])[0]
    assert np.array_equal(a, b)


def test_embed_rejects_out_of_vocab(mini_model):
    with pytest.raises(ValueError, match=r"^index outside \[0, 10\) in input batch$"):
        embed_batch(mini_model, [seq(99)])


def test_embed_golden_vector():
    model = init_model(10, Hyper(max_len=8, seed=42))
    got = embed_batch(model, [seq(2, 5, 3, 9, 7, 4)])[0]
    with open(golden_path("embed_seed42.json")) as fh:
        want = np.array([float(v) for v in json.load(fh)])
    assert np.array_equal(got, want)


def _masked_sigmoid(z):
    """The boolean-mask form `_sigmoid` replaced, kept as its reference."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_bits_match_masked_form():
    special = [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.5, 36.0, 709.0, 745.0, 1e308, np.inf]
    z = np.array(special + [-v for v in special] + [np.nan])
    rng = np.random.default_rng(0)
    for x in (z, rng.normal(0.0, 20.0, size=(12, 128))):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            assert np.array_equal(_sigmoid(x), _masked_sigmoid(x), equal_nan=True)


def _direct_conv(x, w, b):
    """Reference 'same' convolution: K zero-padded shifted matmuls."""
    k = w.shape[1]
    pad = (k - 1) // 2
    length = x.shape[1]
    xp = np.concatenate(
        [np.zeros((len(x), pad, x.shape[2])), x, np.zeros((len(x), k - 1 - pad, x.shape[2]))],
        axis=1,
    )
    return b + sum(xp[:, off : off + length] @ w[:, off].T for off in range(k))


def _reference_forward(model, xb):
    """Embedding lookup, then every layer written out directly."""
    p = model.params

    def pool(x):
        half = x.shape[1] // 2
        return x[:, : 2 * half].reshape(len(x), half, 2, -1).max(axis=2)

    z1 = _direct_conv(p["embedding"][xb], p["conv1_w"], p["conv1_b"])
    h = pool(np.maximum(z1, 0.0))
    h = pool(np.maximum(_direct_conv(h, p["conv2_w"], p["conv2_b"]), 0.0))
    zd = h.max(axis=1) @ p["dense_w"] + p["dense_b"]
    return z1, 1.0 / (1.0 + np.exp(-zd))


@pytest.mark.parametrize("max_len", [4, 5, 8, 11])
def test_forward_matches_direct_conv_reference(max_len):
    rng = np.random.default_rng(max_len)
    for _ in range(5):
        vocab = int(rng.integers(2, 30))
        model = init_model(vocab, Hyper(max_len=max_len, seed=int(rng.integers(1 << 30))))
        # Scale up the +-0.05 init so a wrong tap or row is not hidden
        # under the 1e-12 bound by tiny activations.
        for key in model.params:
            model.params[key] *= 10.0
        xs = []
        for _ in range(int(rng.integers(1, 7))):
            n = int(rng.integers(0, max_len + 1))
            xs.append(seq(*(int(v) for v in rng.integers(0, vocab, n)), max_len=max_len))
        xb = _as_batch(xs)
        ws = _Workspace(*xb.shape, vocab)
        out = _forward_batch(model, xb, ws)
        want_z1, want = _reference_forward(model, xb)
        # Each position's conv1 value is its window's row; pooling drops an odd tail.
        assert np.max(np.abs(ws.z1[ws.inv1] - want_z1[:, : max_len // 2 * 2])) <= 1e-12
        assert np.max(np.abs(out - want)) <= 1e-12
        batched = embed_batch(model, xs)
        for i, x in enumerate(xs):
            assert np.max(np.abs(batched[i] - embed_batch(model, [x])[0])) <= 1e-12


def test_embed_batch_of_nothing_is_empty(mini_model):
    out = embed_batch(mini_model, [])
    assert out.shape == (0, DENSE_DIM)


def test_pool_tie_routes_gradient_to_first_element():
    # Nodes 0-4 hold 2, 2, 1, 3 and 5 in every filter; positions 0-3 read
    # nodes 0-3, so the windows are (2, 2) and (1, 3).
    ws = _Workspace(1, 8, 10, backward=True)
    nodes = np.repeat([[2.0], [2.0], [1.0], [3.0], [5.0]], CONV_FILTERS, axis=1)
    pooled, mask = np.empty((2, CONV_FILTERS)), np.empty((2, CONV_FILTERS), dtype=bool)
    dout = np.repeat([[7.0], [9.0]], CONV_FILTERS, axis=1)
    pairs = _pool2(nodes, np.array([[0, 1, 2, 3]]), pooled, mask, ws)
    assert pooled[:, 0].tolist() == [2.0, 3.0]
    grad = np.zeros(nodes.shape)
    _pool2_backward(dout, pairs, mask, grad, ws)
    assert (grad == [[7.0], [0.0], [0.0], [9.0], [0.0]]).all()
    # A window whose two positions are one node gets its gradient once.
    pairs = _pool2(nodes, np.array([[0, 0, 2, 3]]), pooled, mask, ws)
    grad = np.zeros(nodes.shape)
    _pool2_backward(dout, pairs, mask, grad, ws)
    assert (grad == [[7.0], [0.0], [0.0], [9.0], [0.0]]).all()


def _scaled_model(vocab, max_len, seed):
    # Scale up the +-0.05 init so that activations are not tiny.
    model = init_model(vocab, Hyper(max_len=max_len, seed=seed))
    model.flat *= 10.0
    return model


def _reference_batches(rng, vocab, max_len):
    """Padding-heavy rows, the same row twice, a row without padding, one row alone."""

    def row(n):
        return seq(*(int(v) for v in rng.integers(1, vocab, n)), max_len=max_len)

    heavy = [row(int(rng.integers(0, 3))) for _ in range(6)]
    mixed = [row(int(rng.integers(0, max_len + 1))) for _ in range(9)]
    full = row(max_len)
    return [heavy, mixed + [mixed[2], full], [full], [row(1)], heavy + mixed + [full] * 3]


@pytest.mark.parametrize("max_len", [4, 5, 8, 11, 32])
def test_forward_bits_match_per_position_reference(max_len):
    rng = np.random.default_rng(100 + max_len)
    for trial in range(4):
        model = _scaled_model(30, max_len, trial)
        for xs in _reference_batches(rng, 30, max_len):
            want, _ = siamese_reference.forward(model.params, _as_batch(xs))
            assert np.array_equal(embed_batch(model, xs), want)


def _assert_grads_match_reference(model, ab, bb, yb):
    got, got_losses = _pair_grads_and_loss(model, ab, bb, yb)
    want, want_losses = siamese_reference.pair_grads_and_loss(model.params, ab, bb, yb)
    assert np.array_equal(got_losses, want_losses)
    for key, tensor in want.items():
        err = np.max(np.abs(got[key] - tensor))
        assert err <= 1e-12 * np.max(np.abs(tensor)), (key, err)


@pytest.mark.parametrize("max_len", [4, 5, 8, 11, 32])
def test_gradients_match_per_position_reference(max_len):
    rng = np.random.default_rng(200 + max_len)
    for trial in range(4):
        model = _scaled_model(30, max_len, trial)
        for xs in _reference_batches(rng, 30, max_len):
            rows = _as_batch(xs if len(xs) > 1 else xs * 2)
            half = len(rows) // 2
            ab, bb = rows[:half], rows[half : 2 * half]
            _assert_grads_match_reference(model, ab, bb, rng.integers(0, 2, half).astype(float))


def test_global_max_tie_reaches_first_position_once():
    # Deep padding gives a row many positions of one pooled node, and one
    # statement in both twins gives two rows the same nodes.  So a row's max
    # is reached at several positions; its gradient must reach the first of
    # them once, not once per position or once per row sharing the node.
    model = _scaled_model(12, 32, 2)
    rows = _as_batch([seq(*row, max_len=32) for row in ((), (5,), (4, 7), (4, 7))])
    _, saved = siamese_reference.forward(model.params, rows)
    reached = (saved["p2"] == saved["gmax"][:, None, :]).sum(axis=1)
    assert ((reached > 1) & (saved["gmax"] > 0)).sum() >= 20
    _assert_grads_match_reference(model, rows[:2], rows[2:], np.array([1.0, 0.0]))


def test_pair_ids_are_exact_at_the_id_bound():
    # Ids combine two at a time: a key is at most (n * L) ** 2, which fits
    # int64 up to 3.03e9 positions, far beyond any batch that fits in memory.
    bound = 3_037_000_499  # floor(sqrt(2**63 - 1))
    a = np.array([[bound - 1, 0, bound - 1], [5, bound - 1, 5]])
    b = np.array([[bound - 1, bound - 1, 0], [7, bound - 1, 7]])
    first, second, inv = _pair_ids(a, b, bound)
    assert first.tolist() == [0, 5, bound - 1, bound - 1]
    assert second.tolist() == [bound - 1, 7, 0, bound - 1]
    assert inv.tolist() == [[3, 0, 2], [1, 3, 1]]
    assert (first[inv] == a).all() and (second[inv] == b).all()


# --- pair similarity and loss ------------------------------------------------


def test_self_similarity_is_exactly_one(mini_model):
    x = seq(4, 4, 2, 9)
    e1, e2 = (embed_batch(mini_model, [x])[0] for _ in range(2))
    assert similarity_from_embeddings(e1, e2) == 1.0


def test_known_l1_mass_closed_form():
    ea = np.zeros(128)
    eb = np.zeros(128)
    eb[:3] = 1.0  # total L1 mass 3
    assert math.isclose(similarity_from_embeddings(ea, eb), math.exp(-3), rel_tol=1e-12)


def test_similarity_matches_independent_sum(mini_model):
    a, b = seq(2, 5, 3), seq(9, 8, 7, 6)
    ea = embed_batch(mini_model, [a])[0]
    eb = embed_batch(mini_model, [b])[0]
    expected = math.exp(-math.fsum(abs(float(x) - float(y)) for x, y in zip(ea, eb)))
    assert math.isclose(similarity_from_embeddings(ea, eb), expected, rel_tol=1e-12)


def test_pair_loss_values():
    loss = pair_loss(np.array([0.5, 1.0, 0.9, 0.0, 1.0]), np.array([1.0, 1.0, 0.0, 1.0, 0.0]))
    assert loss.shape == (5,)
    assert math.isclose(loss[0], math.log(2), rel_tol=1e-12)
    assert loss[1] < 1e-6
    assert math.isclose(loss[2], -math.log(0.1), rel_tol=1e-9)
    assert loss[3] > 0  # clamped, not infinite
    assert np.isfinite(loss[4])


def test_similarity_properties_randomized():
    rng = np.random.default_rng(11)
    for trial in range(200):
        model = init_model(10, Hyper(max_len=8, seed=int(rng.integers(1 << 30))))
        a = seq(*rng.integers(0, 10, 8))
        b = seq(*rng.integers(0, 10, 8))
        ea, eb, ea2 = (embed_batch(model, [x])[0] for x in (a, b, a))
        pab = similarity_from_embeddings(ea, eb)
        pba = similarity_from_embeddings(eb, ea)
        assert abs(pab - pba) <= 1e-12
        assert 0.0 < pab <= 1.0
        assert similarity_from_embeddings(ea, ea2) == 1.0


# --- gradients ---------------------------------------------------------------


def _grad_fixture():
    rng = np.random.default_rng(36)
    model = init_model(10, MINI)
    a = seq(*(int(v) for v in rng.permutation(8) + 2))
    b = seq(*(int(v) for v in rng.permutation(8) + 2))
    ab, bb = _as_batch([a, a]), _as_batch([b, b])
    yb = np.array([1.0, 0.0])
    return model, ab, bb, yb


def test_gradient_check_against_central_differences():
    model, ab, bb, yb = _grad_fixture()
    analytic, _ = _pair_grads_and_loss(model, ab, bb, yb)

    def total_loss():
        _, losses = _pair_grads_and_loss(model, ab, bb, yb)
        return float(losses.sum())

    h = 1e-5
    for name, tensor in model.params.items():
        flat = tensor.reshape(-1)
        n = flat.size
        if n <= 1200:
            idxs = np.arange(n)
        else:
            idxs = np.sort(np.random.default_rng(3).choice(n, 256, replace=False))
        ga = analytic[name].reshape(-1)[idxs]
        gf = np.empty(len(idxs))
        for j, i in enumerate(idxs):
            orig = flat[i]
            flat[i] = orig + h
            lp = total_loss()
            flat[i] = orig - h
            lm = total_loss()
            flat[i] = orig
            gf[j] = (lp - lm) / (2 * h)
        rel = np.linalg.norm(ga - gf) / max(np.linalg.norm(ga), np.linalg.norm(gf), 1e-12)
        assert rel < 1e-4, f"{name}: relative error {rel:.3e}"


def test_gradient_check_with_padding_and_repeated_tokens():
    # Rows shorter than max_len repeat index 0; 4 repeats within a row, and
    # 3, 4 and 5 occur in both twins, so many positions share a token.
    model = init_model(10, MINI)
    ab = _as_batch([seq(4, 3, 4, 4, 7), seq(5, 3), seq(4, 9, 4, 4, 6, 5, 3)])
    bb = _as_batch([seq(3, 5, 4), seq(5, 8, 5, 8, 2, 1, 4, 3), seq(3)])
    yb = np.array([1.0, 0.0, 0.0])
    analytic, _ = _pair_grads_and_loss(model, ab, bb, yb)

    def total_loss():
        _, losses = _pair_grads_and_loss(model, ab, bb, yb)
        return float(losses.sum())

    h = 1e-5
    for name, tensor in model.params.items():
        flat = tensor.reshape(-1)
        if flat.size <= 1200:
            idxs = np.arange(flat.size)
        else:
            idxs = np.sort(np.random.default_rng(4).choice(flat.size, 256, replace=False))
        gf = np.empty(len(idxs))
        for j, i in enumerate(idxs):
            orig = flat[i]
            flat[i] = orig + h
            lp = total_loss()
            flat[i] = orig - h
            lm = total_loss()
            flat[i] = orig
            gf[j] = (lp - lm) / (2 * h)
        ga = analytic[name].reshape(-1)[idxs]
        rel = np.linalg.norm(ga - gf) / max(np.linalg.norm(ga), np.linalg.norm(gf), 1e-12)
        assert rel < 1e-4, f"{name}: relative error {rel:.3e}"
    # Exactly the embedding rows of tokens in the batch (0 included) get a gradient.
    used = np.isin(np.arange(10), np.concatenate([ab, bb]))
    assert np.all(np.abs(analytic["embedding"][used]).sum(axis=1) > 0)
    assert not analytic["embedding"][~used].any()


@pytest.mark.parametrize("max_len", [4, 5, 8, 11])
def test_workspace_reuse_leaves_no_stale_state(max_len):
    # Odd lengths leave a tail that pooling drops; batches of 3, 1, 3 and 2
    # pairs run through one workspace sized for 3 and through fresh ones.
    rng = np.random.default_rng(max_len)
    model = init_model(12, Hyper(max_len=max_len, seed=max_len))
    shared = _Workspace(6, max_len, 12, backward=True)

    def rows(n):
        lengths = rng.integers(1, max_len + 1, n)
        return _as_batch([seq(*rng.integers(0, 12, k), max_len=max_len) for k in lengths])

    for bsz in (3, 1, 3, 2):
        ab, bb, yb = rows(bsz), rows(bsz), rng.integers(0, 2, bsz).astype(np.float64)
        got, got_losses = _pair_grads_and_loss(model, ab, bb, yb, shared)
        got = {key: g.copy() for key, g in got.items()}
        want, want_losses = _pair_grads_and_loss(model, ab, bb, yb)
        assert np.array_equal(got_losses, want_losses)
        for key in want:
            assert np.array_equal(got[key], want[key]), (bsz, key)
    # The rows that stand for positions outside the sequence stay zero: T's
    # last row for conv1, the row after the pooled nodes for conv2, and the
    # rows that pad conv2's last GEMM block.
    assert not shared.t[len(shared.uniq)].any()
    n_pool1, n_conv2 = len(shared.pool1[0]), len(shared.taps2[0])
    assert not shared.p1[n_pool1].any()
    assert not shared.x2[n_conv2 : -(-n_conv2 // (max_len // 2)) * (max_len // 2)].any()


def test_training_step_allocation_stays_small():
    # A step writes into its workspace; what it still allocates is small
    # index arrays and [2B, DENSE_DIM] rows, not activations or gradients.
    vocab, max_len, bsz = 244, 32, 32
    rng = np.random.default_rng(5)
    model = init_model(vocab, Hyper(max_len=max_len, seed=5))
    ws = _Workspace(2 * bsz, max_len, vocab, backward=True)
    m, v = np.zeros_like(model.flat), np.zeros_like(model.flat)
    batches = [
        (
            rng.integers(0, vocab, (bsz, max_len)),
            rng.integers(0, vocab, (bsz, max_len)),
            (np.arange(bsz) % 2).astype(np.float64),
        )
        for _ in range(4)
    ]
    for step, (ab, bb, yb) in enumerate(batches[:3], start=1):
        _pair_grads_and_loss(model, ab, bb, yb, ws)
        _adam_step(model, m, v, ws, bsz, step)
    ab, bb, yb = batches[3]
    tracemalloc.start()
    try:
        _pair_grads_and_loss(model, ab, bb, yb, ws)
        _adam_step(model, m, v, ws, bsz, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"


# --- pair sampling -----------------------------------------------------------


def _examples(per_class=2, classes=("a", "b")):
    out = []
    idx = 2
    for c in classes:
        for _ in range(per_class):
            out.append((seq(idx), c))
            idx += 1
    return out


def test_sample_pairs_balance():
    _, _, y = sample_pairs(_examples(), seed=0, n_pairs=4)
    assert y.tolist() == [1.0, 1.0, 0.0, 0.0]


def test_sample_pairs_deterministic():
    a = sample_pairs(_examples(), seed=9, n_pairs=10)
    b = sample_pairs(_examples(), seed=9, n_pairs=10)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_sample_pairs_draw_order_is_pinned():
    # Classes of one, three and two members, and an odd pair count: four
    # positives, the singleton paired with itself, then three negatives.
    examples = [
        (seq(2, max_len=4), "a"),
        (seq(3, 1, max_len=4), "b"),
        (seq(4, max_len=4), "b"),
        (seq(5, 6, max_len=4), "b"),
        (seq(7, max_len=4), "c"),
        (seq(8, 2, max_len=4), "c"),
    ]
    a, b, y = sample_pairs(examples, seed=4, n_pairs=7)
    assert (a.dtype, b.dtype, y.dtype) == (np.int64, np.int64, np.float64)
    assert a.tolist() == [
        [7, 0, 0, 0], [4, 0, 0, 0], [2, 0, 0, 0], [3, 1, 0, 0],
        [3, 1, 0, 0], [4, 0, 0, 0], [2, 0, 0, 0],
    ]
    assert b.tolist() == [
        [8, 2, 0, 0], [5, 6, 0, 0], [2, 0, 0, 0], [4, 0, 0, 0],
        [8, 2, 0, 0], [2, 0, 0, 0], [5, 6, 0, 0],
    ]
    assert y.tolist() == [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0]


def test_sample_pairs_no_self_pair_unless_singleton():
    a, b, y = sample_pairs(_examples(per_class=3), seed=1, n_pairs=50)
    assert all(not np.array_equal(ra, rb) for ra, rb, label in zip(a, b, y) if label == 1)
    singleton = [(seq(2), "a"), (seq(3), "b"), (seq(4), "b")]
    a, b, y = sample_pairs(singleton, seed=1, n_pairs=20)
    selfpairs = [ra for ra, rb, label in zip(a, b, y) if label == 1 and np.array_equal(ra, rb)]
    # Only the single-member class may pair with itself.
    assert all(ra.tolist() == list(singleton[0][0]) for ra in selfpairs)


def test_sample_pairs_single_class_rejected():
    with pytest.raises(ValueError, match="^pair sampling needs at least two classes$"):
        sample_pairs([(seq(2), "only"), (seq(3), "only")], seed=0, n_pairs=2)


def test_large_sample_balance(corpus, trained):
    _, vocab, _ = trained
    from tsgkit.vectorize import encode

    encoded = [(encode(s, vocab, 32), label) for s, label in corpus]
    a, b, y = sample_pairs(encoded, seed=3, n_pairs=2000)
    pos = int(y.sum())
    assert abs(pos - (len(y) - pos)) <= 1
    assert a.shape == b.shape == (2000, 32) and len(y) == 2000


# --- training ----------------------------------------------------------------


def _tiny_pairs():
    a = _as_batch([seq(2, 3), seq(2, 3), seq(2, 4), seq(9, 8)])
    b = _as_batch([seq(2, 4), seq(8, 9), seq(2, 3), seq(2, 4)])
    return a, b, np.array([1.0, 0.0, 1.0, 0.0])


def test_train_requires_both_pair_kinds():
    hyper = Hyper(max_len=8, seed=1, epochs=1)
    a, b = _as_batch([seq(2)]), _as_batch([seq(3)])
    with pytest.raises(ValueError, match="^training needs at least one positive pair$"):
        train((a, b, np.array([0.0])), hyper, 10)
    with pytest.raises(ValueError, match="^training needs at least one negative pair$"):
        train((a, b, np.array([1.0])), hyper, 10)


def test_zero_learning_rate_keeps_initialization():
    hyper = Hyper(max_len=8, seed=7, epochs=3, learning_rate=0.0)
    model = train(_tiny_pairs(), hyper, 10)
    fresh = init_model(10, hyper)
    for key in model.params:
        assert np.array_equal(model.params[key], fresh.params[key])


def test_identical_seeds_identical_bytes(tmp_path):
    hyper = Hyper(max_len=8, seed=5, epochs=2)
    p1, p2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
    save_model(train(_tiny_pairs(), hyper, 10), str(p1))
    save_model(train(_tiny_pairs(), hyper, 10), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_model_bytes_do_not_depend_on_blas_thread_count(tmp_path):
    # The smallest bundled-corpus fit found whose bytes differed between 1
    # and 2 OpenBLAS threads before `train` pinned one thread: 72 pairs are
    # two full batches and a partial one.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(os.path.dirname(tsgkit.__file__)), env.get("PYTHONPATH")) if p
    )
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env["OPENBLAS_NUM_THREADS"] = threads
        done = subprocess.run(
            [
                sys.executable, "-m", "tsgkit.cli", "--seed", "42", "--quiet",
                "--max-len", "16", "--n-pairs", "72", "--epochs", "1",
                "--vocab", str(out / "vocab.tsv"), "--model", str(out / "model.bin"),
                "--prototypes", str(out / "protos.tsv"),
                "train", data_path("corpus.jsonl"),
            ],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        blobs.append((out / "model.bin").read_bytes())
    assert blobs[0] == blobs[1]


def _per_tensor_train(pairs, hyper, vocab_size):
    """Reference fit: one init draw and one Adam update per tensor, in file order."""
    rng = np.random.default_rng(hyper.seed)
    shapes = (
        ("embedding", (vocab_size, 100)),
        ("conv1_w", (64, 3, 100)),
        ("conv1_b", (64,)),
        ("conv2_w", (64, 3, 64)),
        ("conv2_b", (64,)),
        ("dense_w", (64, 128)),
        ("dense_b", (128,)),
    )
    params = {name: rng.uniform(-0.05, 0.05, size=shape) for name, shape in shapes}
    ref = SimpleNamespace(params=params, vocab_size=vocab_size)
    rng = np.random.default_rng(hyper.seed + 1)
    a_all, b_all, y_all = pairs
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = {k: np.zeros_like(t) for k, t in params.items()}
    v = {k: np.zeros_like(t) for k, t in params.items()}
    step = 0
    for _ in range(hyper.epochs):
        order = rng.permutation(len(y_all))
        for at in range(0, len(y_all), hyper.batch_size):
            sel = order[at : at + hyper.batch_size]
            grads, _ = _pair_grads_and_loss(ref, a_all[sel], b_all[sel], y_all[sel])
            step += 1
            for key, g in grads.items():
                g = g / len(sel)
                m[key] = beta1 * m[key] + (1 - beta1) * g
                v[key] = beta2 * v[key] + (1 - beta2) * g * g
                mhat = m[key] / (1 - beta1**step)
                vhat = v[key] / (1 - beta2**step)
                params[key] -= hyper.learning_rate * mhat / (np.sqrt(vhat) + eps)
    return params


def test_flat_adam_matches_per_tensor_reference_bit_for_bit():
    # Batches of 3 over 4 pairs: a full and a partial batch per epoch.
    hyper = Hyper(max_len=8, seed=5, epochs=3, batch_size=3, learning_rate=0.01)
    model = train(_tiny_pairs(), hyper, 10)
    want = _per_tensor_train(_tiny_pairs(), hyper, 10)
    assert not np.array_equal(model.flat, init_model(10, hyper).flat)
    assert list(model.params) == list(want)
    for key, tensor in model.params.items():
        assert np.array_equal(tensor, want[key]), key
        assert np.shares_memory(tensor, model.flat), key


def test_loss_trace_decreases_on_bundled_corpus(trained):
    model, _, _ = trained
    trace = model.loss_trace
    assert len(trace) == model.hyper.epochs
    assert all(np.isfinite(v) for v in trace)
    assert trace[-1] < trace[0]


def test_model_equality_is_identity():
    model = init_model(5, MINI)
    assert model == model and model != init_model(5, MINI)


def test_model_round_trip(tmp_path):
    hyper = Hyper(max_len=8, seed=5, epochs=1)
    model = train(_tiny_pairs(), hyper, 10)
    path = tmp_path / "m.bin"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.vocab_size == model.vocab_size
    assert loaded.hyper == model.hyper
    assert loaded.flat.flags.writeable
    for key in model.params:
        assert np.array_equal(loaded.params[key], model.params[key])
        assert np.shares_memory(loaded.params[key], loaded.flat)
    again = tmp_path / "again.bin"
    save_model(loaded, str(again))
    assert again.read_bytes() == path.read_bytes()


def test_corrupt_model_rejected(tmp_path):
    hyper = Hyper(max_len=8, seed=5, epochs=1)
    path = tmp_path / "m.bin"
    save_model(train(_tiny_pairs(), hyper, 10), str(path))
    blob = bytearray(path.read_bytes())
    blob[50] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        load_model(str(path))


@pytest.mark.parametrize(
    "cut",
    [
        lambda blob: MAGIC + b"\x01\x00",  # header cut short
        lambda blob: blob[:-40],  # one parameter short
        lambda blob: blob[:-32] + bytes(8) + blob[-32:],  # one parameter too many
    ],
    ids=["header", "short", "long"],
)
def test_wrong_length_model_rejected(tmp_path, cut):
    path = tmp_path / "m.bin"
    save_model(init_model(10, MINI), str(path))
    path.write_bytes(cut(path.read_bytes()))
    with pytest.raises(ValueError):
        load_model(str(path))


def test_max_len_limit_is_inclusive():
    assert Hyper(max_len=MAX_LEN_LIMIT).max_len == 1024
    with pytest.raises(ValueError, match="max_len must be at most 1024"):
        Hyper(max_len=MAX_LEN_LIMIT + 1)
