import pytest

from conftest import read_golden
from tsgkit.ingest import Statement, tokenize
from tsgkit.vectorize import (
    bow,
    build_vocabulary,
    encode,
    load_vocabulary,
    save_vocabulary,
)


def stmt(tokens, text="x"):
    return Statement(text, 1, 1, tuple(tokens))


def from_text(text):
    return Statement(text, 1, 1, tuple(tokenize(text)))


def test_frequency_then_lexicographic_order():
    vocab = build_vocabulary([stmt(["a", "b", "a"])], min_freq=1)
    assert vocab.token_to_index == {"a": 2, "b": 3}
    assert vocab.size == 4


def test_min_freq_filters():
    vocab = build_vocabulary([stmt(["a", "b", "a"])], min_freq=2)
    assert vocab.token_to_index == {"a": 2}


def test_empty_corpus_rejected():
    with pytest.raises(ValueError, match="^cannot build a vocabulary from an empty corpus$"):
        build_vocabulary([])


EXEMPLARS = [
    "http://adf.azure.com/factory=resourceGroup/y/.../factories/z",
    "https://jarvis.msft.net/dashboard/share/xxx",
    'StormEvents | where State == "FLORIDA" | count',
    '$tenant = "<your tenant id/name>"',
    "$rules = Get-TransportRule -Organization $org",
    "Update-GridTenantProvisioningStamp $TenantId",
    "If the status is green, the problem is self-resolved.",
]


def test_exemplar_vocabulary_golden(tmp_path):
    vocab = build_vocabulary([from_text(t) for t in EXEMPLARS], min_freq=1)
    out = tmp_path / "vocab.tsv"
    save_vocabulary(vocab, str(out))
    assert out.read_text() == read_golden("vocab_exemplars.tsv")


def test_vocabulary_build_is_deterministic(tmp_path):
    stmts = [from_text(t) for t in EXEMPLARS]
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    save_vocabulary(build_vocabulary(stmts), str(a))
    save_vocabulary(build_vocabulary(list(stmts)), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_vocabulary_round_trip(tmp_path):
    vocab = build_vocabulary([stmt(["x", "y", "x"])])
    path = tmp_path / "v.tsv"
    save_vocabulary(vocab, str(path))
    assert load_vocabulary(str(path)).token_to_index == vocab.token_to_index


def test_encode_pads_tail():
    vocab = build_vocabulary([stmt(["a"])])
    seq = encode(stmt(["a"]), vocab, max_len=4)
    assert seq == (2, 0, 0, 0)


def test_encode_unknowns_map_to_one():
    vocab = build_vocabulary([stmt(["a"])])
    seq = encode(stmt(["zz", "qq"]), vocab, max_len=3)
    assert seq == (1, 1, 0)


def test_encode_truncates_prefix():
    vocab = build_vocabulary([stmt(["a", "b", "c"])])
    seq = encode(stmt(["a", "b", "c"]), vocab, max_len=2)
    assert len(seq) == 2
    assert seq[0] == vocab.index("a")


def test_encode_round_trip_known_tokens():
    vocab = build_vocabulary([stmt(["a", "b", "c"])])
    rev = {i: t for t, i in vocab.token_to_index.items()}
    seq = encode(stmt(["c", "a"]), vocab, max_len=5)
    decoded = [rev[i] for i in seq[:2]]
    assert decoded == ["c", "a"]


def test_bow_counts():
    vocab = build_vocabulary([stmt(["a", "b"])])
    vec = bow(stmt(["a", "a", "zz"]), vocab)
    assert vec[vocab.index("a")] == 2
    assert vec[1] == 1  # unknown bucket
    assert all(c >= 1 for c in vec.values())
