import math

import numpy as np
import pytest

from tsgkit.identify import (
    Prototype,
    classify,
    classify_batch,
    compute_prototypes,
    knn_bow_classify,
    load_prototypes,
    save_prototypes,
)
from tsgkit.ingest import clean_document, segment
from tsgkit.siamese import Hyper, embed_batch, init_model
from tsgkit.vectorize import encode


def seq(*indices, max_len=8):
    return tuple(indices) + (0,) * (max_len - len(indices))


@pytest.fixture(scope="module")
def model():
    return init_model(12, Hyper(max_len=8, seed=3))


def test_single_example_prototype_equals_embedding(model):
    x = seq(2, 3, 4)
    protos = compute_prototypes(model, {"k": [x]})
    assert np.array_equal(protos[0].vector, embed_batch(model, [x])[0])
    assert protos[0].support_count == 1


def test_duplicate_examples_share_prototype(model):
    x = seq(5, 6)
    one = compute_prototypes(model, {"k": [x]})[0].vector
    two = compute_prototypes(model, {"k": [x, x]})[0].vector
    assert np.allclose(one, two, atol=1e-15)


def test_prototype_matches_brute_force_mean(model):
    xs = [seq(2, 3), seq(4, 5, 6), seq(7), seq(8, 9, 10, 11)]
    proto = compute_prototypes(model, {"k": xs})[0].vector
    embeddings = [embed_batch(model, [x])[0] for x in xs]
    brute = [
        math.fsum(e[i] for e in embeddings) / len(embeddings) for i in range(128)
    ]
    assert np.max(np.abs(proto - np.array(brute))) < 1e-9


def test_empty_class_rejected(model):
    with pytest.raises(ValueError, match="^class 'k' has no support examples$"):
        compute_prototypes(model, {"k": []})


def test_classify_self_support_wins(model):
    x, other = seq(2, 3, 4), seq(9, 10, 11)
    protos = compute_prototypes(model, {"mine": [x], "other": [other]})
    result = classify(model, protos, x)
    assert result.label == "mine"
    assert result.similarity == 1.0
    assert result.per_class["mine"] == 1.0


def test_classify_tie_breaks_lexicographically(model):
    x = seq(2, 3)
    vec = embed_batch(model, [x])[0]
    protos = [Prototype("zeta", vec.copy(), 1), Prototype("alpha", vec.copy(), 1)]
    assert classify(model, protos, x).label == "alpha"


def test_classify_requires_prototypes(model):
    with pytest.raises(ValueError, match="^need at least one prototype$"):
        classify(model, [], seq(2))


def test_classify_is_pure(model):
    protos = compute_prototypes(model, {"a": [seq(2)], "b": [seq(3)]})
    first = classify(model, protos, seq(4, 5))
    second = classify(model, protos, seq(4, 5))
    assert first == second


def test_label_equals_nearest_prototype_under_l1(model):
    protos = compute_prototypes(
        model, {"a": [seq(2), seq(3)], "b": [seq(9), seq(10)], "c": [seq(4, 7)]}
    )
    for x in [seq(2), seq(9, 9), seq(4, 7, 2), seq(11)]:
        got = classify(model, protos, x)
        ex = embed_batch(model, [x])[0]
        dists = {p.label: float(np.abs(ex - p.vector).sum()) for p in protos}
        nearest = min(sorted(dists), key=lambda c: dists[c])
        assert got.label == nearest


def test_weighted_sum_oracle_agrees_on_separated_support(model):
    # Full support-set weighted vote (the unoptimized formulation) must
    # agree with prototype classification when classes are well separated.
    support = {"a": [seq(2), seq(2, 3)], "b": [seq(9), seq(9, 10)]}
    protos = compute_prototypes(model, support)
    for x in [seq(2), seq(2, 3), seq(9), seq(9, 10)]:
        ex = embed_batch(model, [x])[0]
        votes = {}
        for label, members in support.items():
            votes[label] = sum(
                math.exp(-float(np.abs(ex - embed_batch(model, [m])[0]).sum()))
                for m in members
            )
        oracle = max(sorted(votes), key=lambda c: votes[c])
        assert classify(model, protos, x).label == oracle


def test_runner_up_is_best_other_class_and_margin_its_gap(model):
    protos = compute_prototypes(
        model, {"a": [seq(2), seq(3)], "b": [seq(9), seq(10)], "c": [seq(4, 7)]}
    )
    for x in [seq(2), seq(9, 9), seq(4, 7, 2), seq(11)]:
        got = classify(model, protos, x)
        others = {c: s for c, s in got.per_class.items() if c != got.label}
        assert got.runner_up == max(sorted(others), key=others.get)
        assert got.margin == got.similarity - got.per_class[got.runner_up]
        assert got.margin >= 0.0


def test_single_prototype_has_no_runner_up(model):
    got = classify(model, compute_prototypes(model, {"only": [seq(2)]}), seq(5))
    assert (got.label, got.runner_up, got.margin) == ("only", None, 0.0)


def test_batch_tie_breaks_lexicographically(model):
    x, y = seq(2, 3), seq(7, 8)
    vec = embed_batch(model, [x])[0]
    protos = [Prototype("zeta", vec.copy(), 1), Prototype("alpha", vec.copy(), 1)]
    for got in classify_batch(model, protos, [x, y, x]):
        assert (got.label, got.runner_up, got.margin) == ("alpha", "zeta", 0.0)


def test_empty_batch_needs_no_prototypes(model):
    assert classify_batch(model, [], []) == []
    with pytest.raises(ValueError, match="^need at least one prototype$"):
        classify_batch(model, [], [seq(2)])


def test_batch_of_one_is_classify_over_a_guide(trained, sample_doc):
    model, vocab, protos = trained
    statements = segment(clean_document(sample_doc))
    xs = [encode(s, vocab, model.hyper.max_len) for s in statements]
    assert len(xs) > 5
    for x in xs:
        one = classify(model, protos, x)
        got = classify_batch(model, protos, [x])[0]
        assert got.label == one.label
        assert got.similarity == one.similarity
        assert got.per_class == one.per_class
        assert got.runner_up == one.runner_up
        assert got.margin == one.margin


def test_batched_labels_equal_one_row_labels_over_corpus(trained, corpus):
    # A batched forward pass may sum in another order than a one-row pass,
    # so similarities agree to float64 rounding, not bit for bit.
    model, vocab, protos = trained
    xs = [encode(s, vocab, model.hyper.max_len) for s, _ in corpus]
    for x, got in zip(xs, classify_batch(model, protos, xs)):
        one = classify(model, protos, x)
        assert (got.label, got.runner_up) == (one.label, one.runner_up)
        for label, sim in one.per_class.items():
            assert abs(got.per_class[label] - sim) <= 1e-12
        assert abs(got.margin - one.margin) <= 1e-12


def test_prototype_file_round_trip(model, tmp_path):
    protos = compute_prototypes(model, {"a": [seq(2)], "b": [seq(3), seq(4)]})
    path = tmp_path / "p.tsv"
    save_prototypes(protos, str(path))
    loaded = load_prototypes(str(path))
    assert [p.label for p in loaded] == ["a", "b"]
    for got, want in zip(loaded, protos):
        assert got.support_count == want.support_count
        assert np.array_equal(got.vector, want.vector)


# --- KNN baseline ------------------------------------------------------------


def v(**counts):
    return {int(k[1:]): n for k, n in counts.items()}


def test_knn_exact_match_wins_at_k1():
    train = [(v(i2=1), "a"), (v(i3=1), "b")]
    assert knn_bow_classify(train, v(i3=1), k=1) == "b"


def test_knn_majority_at_full_k():
    train = [(v(i2=1), "a"), (v(i2=1, i3=1), "a"), (v(i9=1), "b")]
    assert knn_bow_classify(train, v(i5=1), k=3) == "a"


def test_knn_hand_computed_six_vector_fixture():
    # Cosine distances to x = {2:1, 3:1} computed by hand:
    #   t0 {2:1}        -> 1 - 1/sqrt(2)        ~= 0.2929
    #   t1 {3:1}        -> 1 - 1/sqrt(2)        ~= 0.2929
    #   t2 {2:1,3:1}    -> 0.0
    #   t3 {4:1}        -> 1.0
    #   t4 {2:2,3:2}    -> 0.0
    #   t5 {2:1,4:1}    -> 1 - 1/2 = 0.5
    train = [
        (v(i2=1), "a"),
        (v(i3=1), "b"),
        (v(i2=1, i3=1), "b"),
        (v(i4=1), "a"),
        (v(i2=2, i3=2), "a"),
        (v(i2=1, i4=1), "b"),
    ]
    x = v(i2=1, i3=1)
    # k=3 neighborhood: t2 (0.0), t4 (0.0), then t0 on index tie-break.
    # Votes: a={t4,t0}=2, b={t2}=1.
    assert knn_bow_classify(train, x, k=3) == "a"


def test_knn_vote_tie_is_lexicographic():
    train = [(v(i2=1), "b"), (v(i3=1), "a")]
    assert knn_bow_classify(train, v(i2=1, i3=1), k=2) == "a"


def test_knn_validates_inputs():
    with pytest.raises(ValueError, match="^knn needs a non-empty training set$"):
        knn_bow_classify([], v(i2=1), k=1)
    with pytest.raises(ValueError):
        knn_bow_classify([(v(i2=1), "a")], v(i2=1), k=2)
