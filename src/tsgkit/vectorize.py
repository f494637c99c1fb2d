"""Vocabulary building and statement featurization.

Statements become fixed-length index sequences (for the embedding
network) or sparse bag-of-words count vectors (for the KNN baseline).
Index 0 is padding, index 1 is the unknown token.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .ingest import Statement

PAD = 0
UNK = 1


class EmptyCorpus(ValueError):
    pass


@dataclass(frozen=True)
class Vocabulary:
    token_to_index: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.token_to_index) + 2

    def index(self, token: str) -> int:
        return self.token_to_index.get(token, UNK)


def build_vocabulary(corpus: list[Statement], min_freq: int = 1) -> Vocabulary:
    """Tokens occurring >= min_freq times, most frequent first (ties: lexicographic)."""
    if not corpus:
        raise EmptyCorpus("cannot build a vocabulary from an empty corpus")
    if min_freq < 1:
        raise ValueError("min_freq must be >= 1")
    counts = Counter(tok for stmt in corpus for tok in stmt.tokens)
    kept = sorted(
        (tok for tok, n in counts.items() if n >= min_freq),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocabulary({tok: i + 2 for i, tok in enumerate(kept)})


def save_vocabulary(vocab: Vocabulary, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for tok, idx in sorted(vocab.token_to_index.items(), key=lambda kv: kv[1]):
            fh.write(f"{tok}\t{idx}\n")


def load_vocabulary(path: str) -> Vocabulary:
    """Errors name `path:line`."""
    mapping: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    try:
        for lineno, line in enumerate(lines, start=1):
            if line:
                tok, idx = line.rsplit("\t", 1)
                mapping[tok] = int(idx)
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None
    return Vocabulary(mapping)


def encode(stmt: Statement, vocab: Vocabulary, max_len: int = 64) -> tuple[int, ...]:
    """Map the first max_len tokens to indices; pad the tail with 0."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    indices = [vocab.index(t) for t in stmt.tokens[:max_len]]
    return tuple(indices) + (PAD,) * (max_len - len(indices))


def bow(stmt: Statement, vocab: Vocabulary) -> dict[int, int]:
    """Count of each token index in the statement."""
    return dict(Counter(vocab.index(t) for t in stmt.tokens))
