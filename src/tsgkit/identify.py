"""Component-type classification: the fit sequence, nearest prototype in
embedding space, and the bag-of-words KNN baseline."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ingest import Statement
from .siamese import (
    DENSE_DIM,
    Hyper,
    SiameseModel,
    embed_batch,
    sample_pairs,
    similarity_from_embeddings,
    train,
)
from .vectorize import IndexSequence, Vocabulary, build_vocabulary, encode

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
    label: str
    similarity: float
    per_class: dict[str, float]


def compute_prototypes(
    model: SiameseModel, support: dict[str, list[IndexSequence]]
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
    support: dict[str, list[IndexSequence]] = {}
    for x, label in encoded:
        support.setdefault(label, []).append(x)
    return vocab, model, compute_prototypes(model, support)


def classify(
    model: SiameseModel, protos: list[Prototype], x: IndexSequence
) -> Classification:
    """Label of the L1-nearest prototype; similarity is exp(-L1)."""
    if not protos:
        raise NoPrototypes("need at least one prototype")
    ex = embed_batch(model, [x])[0]
    per_class: dict[str, float] = {}
    for p in sorted(protos, key=lambda p: p.label):
        per_class[p.label] = similarity_from_embeddings(ex, p.vector)
    # max keeps the first maximum: ties go to the lexicographically smallest class.
    best = max(sorted(per_class), key=per_class.get)
    return Classification(best, per_class[best], per_class)


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
