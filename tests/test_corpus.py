import collections
import json

import numpy as np
import pytest

from tsgkit import corpusgen
from tsgkit.config import data_path
from tsgkit.corpusgen import CLASSES, generate_corpus
from tsgkit.identify import classify
from tsgkit.ingest import Statement, tokenize
from tsgkit.vectorize import encode


def test_bundled_corpus_matches_generator():
    with open(data_path("corpus.jsonl"), encoding="utf-8") as fh:
        committed = [json.loads(line) for line in fh if line.strip()]
    generated = [
        {"text": text, "label": label} for text, label in generate_corpus()
    ]
    assert committed == generated


def test_corpus_class_counts():
    counts = collections.Counter(label for _, label in generate_corpus())
    assert set(counts) == set(CLASSES)
    assert all(n == 40 for n in counts.values())


def test_generator_is_deterministic():
    assert generate_corpus(seed=7) == generate_corpus(seed=7)
    assert generate_corpus(seed=7) != generate_corpus(seed=8)


def _reference_generate_corpus(rng, per_class):
    """The one-draw-per-attempt algorithm that `generate_corpus` must match."""
    rows = []
    for label in CLASSES:
        seen = list(corpusgen.FIXED.get(label, ()))
        gen = corpusgen._GENERATORS[label]
        attempts = 0
        while len(seen) < per_class and attempts < per_class * 60:
            candidate = gen(rng)
            attempts += 1
            if candidate not in seen:
                seen.append(candidate)
        while len(seen) < per_class:
            seen.append(gen(rng))
        rows.extend((text, label) for text in seen[:per_class])
    return rows


@pytest.mark.parametrize("per_class", [0, 1, 2, 3, 5, 12, 13, 14, 20, 40, 60, 120])
def test_generate_corpus_matches_reference_rows_and_stream(per_class, monkeypatch):
    made = []

    def recording_default_rng(seed):
        made.append(np.random.Generator(np.random.PCG64(seed)))
        return made[-1]

    monkeypatch.setattr(corpusgen.np.random, "default_rng", recording_default_rng)
    # The large sizes cost seconds per seed in the reference.
    for seed in range(30 if per_class <= 40 else 10):
        rows = generate_corpus(seed, per_class)
        ref_rng = np.random.Generator(np.random.PCG64(seed))
        assert rows == _reference_generate_corpus(ref_rng, per_class), seed
        assert made[-1].bit_generator.state == ref_rng.bit_generator.state, seed


EXEMPLARS = [
    ("http://adf.azure.com/factory=resourceGroup/y/.../factories/z", "adf"),
    ("https://jarvis.msft.net/dashboard/share/xxx", "jarvis"),
    ('StormEvents | where State == "FLORIDA" | count', "kusto"),
    ('$tenant = "<your tenant id/name>"', "powershell"),
    ("$rules = Get-TransportRule -Organization $org", "torus"),
    ("Update-GridTenantProvisioningStamp $TenantId", "merlin"),
    ("If the status is green, the problem is self-resolved.", "natural_language"),
]


def test_component_exemplars_classify_correctly(trained):
    model, vocab, protos = trained
    for text, want in EXEMPLARS:
        s = Statement(text, 1, 1, tuple(tokenize(text)))
        got = classify(model, protos, encode(s, vocab, model.hyper.max_len))
        assert got.label == want, (text, got.label)
