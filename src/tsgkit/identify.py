"""Component-type classification: the fit sequence, nearest prototype in
embedding space, and the bag-of-words KNN baseline."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ingest import Statement
from .siamese import (
    DENSE_DIM, Hyper, SiameseModel, embed_batch, sample_pairs, similarity_from_embeddings, train,
)
from .vectorize import Vocabulary, build_vocabulary, encode

class EmptyClass(ValueError):
    pass


class NoPrototypes(ValueError):
    pass


class EmptyTrainingSet(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Prototype:
    label: str
    vector: np.ndarray
    support_count: int


@dataclass(frozen=True)
class Classification:
    """The winning label and its similarity, every class's similarity, and
    the best other class with the winner's lead over it (`None` and 0.0
    when there is only one class)."""

    label: str
    similarity: float
    per_class: dict[str, float]
    runner_up: str | None
    margin: float


def compute_prototypes(
    model: SiameseModel, support: dict[str, list[tuple[int, ...]]]
) -> list[Prototype]:
    """Per class, the coordinate-wise mean of the embedded support examples."""
    protos = []
    for label in sorted(support):
        xs = support[label]
        if not xs:
            raise EmptyClass(f"class {label!r} has no support examples")
        vectors = embed_batch(model, xs)
        protos.append(Prototype(label, vectors.mean(axis=0), len(xs)))
    return protos


def fit(
    examples: list[tuple[Statement, str]], hyper: Hyper, n_pairs: int, min_freq: int = 1
) -> tuple[Vocabulary, SiameseModel, list[Prototype]]:
    """Vocabulary, trained twin network and per-class prototypes for `examples`.

    Builds the vocabulary, encodes to `hyper.max_len`, samples `n_pairs`
    pairs and trains, both with `hyper.seed`, then takes each class's mean
    embedding as its prototype.
    """
    vocab = build_vocabulary([s for s, _ in examples], min_freq)
    encoded = [(encode(s, vocab, hyper.max_len), label) for s, label in examples]
    pairs = sample_pairs(encoded, hyper.seed, n_pairs)
    model = train(pairs, hyper, vocab.size)
    support: dict[str, list[tuple[int, ...]]] = {}
    for x, label in encoded:
        support.setdefault(label, []).append(x)
    return vocab, model, compute_prototypes(model, support)


def classify_batch(
    model: SiameseModel, protos: list[Prototype], xs: list[tuple[int, ...]]
) -> list[Classification]:
    """Label of each row's L1-nearest prototype, from one embedding pass.

    Similarity is exp(-L1).  Ties go to the lexicographically smallest
    class, for the winner and the runner-up alike.  An empty `xs` gives
    `[]` without looking at `protos`.
    """
    if not xs:
        return []
    if not protos:
        raise NoPrototypes("need at least one prototype")
    # Label order; a repeated label keeps its last prototype.
    by_label = {p.label: p.vector for p in sorted(protos, key=lambda p: p.label)}
    labels = list(by_label)
    centers = np.stack(list(by_label.values()))
    ex = embed_batch(model, xs)
    sims = similarity_from_embeddings(ex[:, None, :], centers[None, :, :])
    # argmax keeps the first maximum, so ties go to the smallest label.
    best = sims.argmax(axis=1)
    if len(labels) > 1:
        others = sims.copy()
        others[np.arange(len(xs)), best] = -np.inf
        second = others.argmax(axis=1).tolist()
    else:
        second = [None] * len(xs)
    out = []
    for row, b, r in zip(sims.tolist(), best.tolist(), second):
        runner_up, margin = (None, 0.0) if r is None else (labels[r], row[b] - row[r])
        out.append(Classification(labels[b], row[b], dict(zip(labels, row)), runner_up, margin))
    return out


def classify(
    model: SiameseModel, protos: list[Prototype], x: tuple[int, ...]
) -> Classification:
    """`classify_batch` of the single row `x`."""
    return classify_batch(model, protos, [x])[0]


def save_prototypes(protos: list[Prototype], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in sorted(protos, key=lambda p: p.label):
            values = ",".join(f"{v:.17g}" for v in p.vector)
            fh.write(f"{p.label}\t{p.support_count}\t{values}\n")


def load_prototypes(path: str) -> list[Prototype]:
    """Errors name `path:line`; each vector must have DENSE_DIM values."""
    protos = []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    try:
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            label, count, values = line.split("\t")
            vec = np.array(list(map(float, values.split(","))))
            if len(vec) != DENSE_DIM:
                raise ValueError(f"prototype has {len(vec)} values, not {DENSE_DIM}")
            protos.append(Prototype(label, vec, int(count)))
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None
    return protos


def _cosine_distance(a: dict[int, int], b: dict[int, int]) -> float:
    dot = sum(n * b.get(i, 0) for i, n in a.items())
    na = math.sqrt(sum(n * n for n in a.values()))
    nb = math.sqrt(sum(n * n for n in b.values()))
    if na == 0.0 or nb == 0.0:
        return 1.0
    return 1.0 - dot / (na * nb)


def knn_bow_classify(
    train: list[tuple[dict[int, int], str]], x: dict[int, int], k: int
) -> str:
    """Majority label among the k nearest neighbors under cosine distance.

    Distance ties break by training-set order, vote ties lexicographically.
    """
    if not train:
        raise EmptyTrainingSet("knn needs a non-empty training set")
    if not 1 <= k <= len(train):
        raise ValueError(f"k must be in [1, {len(train)}]")
    ranked = sorted(
        ((_cosine_distance(x, vec), i, label) for i, (vec, label) in enumerate(train)),
        key=lambda t: (t[0], t[1]),
    )
    votes: dict[str, int] = {}
    for _, _, label in ranked[:k]:
        votes[label] = votes.get(label, 0) + 1
    return max(sorted(votes), key=votes.get)
