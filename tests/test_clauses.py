import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsgkit.clauses import (
    Lexicon,
    load_lexicon,
    strip_tags,
    tag_clauses,
)
from tsgkit.config import data_path


def test_comma_punctuated_conditional():
    t = tag_clauses("If you need to force the file sync, you can use ForceSync parameter")
    assert t == (
        "If <CL1>you need to force the file sync</CL1>, "
        "<CL2>you can use ForceSync parameter</CL2>"
    )


def test_unpunctuated_conditional_boundary_at_signal():
    t = tag_clauses("If it is due to any other error contact the reporting team")
    assert "<CL1>it is due to any other error</CL1>" in t
    assert "<CL2>contact the reporting team</CL2>" in t


def test_then_is_consumed():
    t = tag_clauses("If command returns True, then create an incident")
    assert "<CL1>command returns True</CL1>" in t
    assert "<CL2>create an incident</CL2>" in t
    assert "<CL2>then" not in t


def test_signal_boundary_without_comma():
    t = tag_clauses("If the status is False delete the resource")
    assert "<CL1>the status is False</CL1>" in t
    assert "<CL2>delete the resource</CL2>" in t


def test_condition_only_sentence():
    t = tag_clauses("If average latency is > 300 ms")
    assert t == "If <CL1>average latency is > 300 ms</CL1>"
    assert "<CL2>" not in t


def test_no_subordinator_whole_sentence_cl1():
    t = tag_clauses("restart the service")
    assert t == "<CL1>restart the service</CL1>"
    assert "<CL2>" not in t


def test_multiword_subordinator():
    t = tag_clauses("In case the cache misbehaves, you can flush it")
    assert t.startswith("In case <CL1>the cache misbehaves</CL1>,")


def test_empty_sentence_rejected():
    with pytest.raises(ValueError):
        tag_clauses("")


@pytest.mark.parametrize(
    "sentence",
    [
        "If you need to force the file sync, you can use ForceSync parameter",
        "restart the service",
        "If average latency is > 300 ms",
    ],
)
def test_tag_then_strip_identity_fixtures(sentence):
    assert strip_tags(tag_clauses(sentence)) == sentence


WORDS = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyzIF,.0123456789", min_size=1, max_size=8),
    min_size=1,
    max_size=12,
)


@given(WORDS)
def test_strip_after_tag_is_identity(words):
    sentence = " ".join(words)
    t = tag_clauses(sentence)
    assert strip_tags(t) == sentence
    # The docstring's "always returns a tagging": exactly one condition clause.
    assert t.count("<CL1>") == t.count("</CL1>") == 1


@given(WORDS)
def test_tags_never_split_tokens(words):
    sentence = " ".join(words)
    tagged = tag_clauses(sentence)
    for piece in ("<CL1>", "</CL1>", "<CL2>", "</CL2>"):
        at = tagged.find(piece)
        if at < 0:
            continue
        before = tagged[at - 1] if at else ""
        after = tagged[at + len(piece) : at + len(piece) + 1]
        # An opening tag must not begin mid-word; a closing one must not
        # end mid-word.
        if piece.startswith("</"):
            assert not after or not after.isalnum() or after in "<"
        else:
            assert not before or not before.isalnum()


def test_bundled_lexicon_loads():
    lex = load_lexicon(data_path("lexicon.txt"))
    assert "if" in lex.subordinators
    assert "in case" in lex.subordinators
    assert "then" in lex.second_clause_signals
    assert "it is" in lex.second_clause_signals
    # The CLI loads the file; library callers get the defaults.
    assert lex == Lexicon()


def test_custom_lexicon_changes_behavior(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("[subordinators]\nwhenever\n[second_clause_signals]\nthen\n")
    lex = load_lexicon(str(path))
    t = tag_clauses("whenever the job stalls then requeue it", lex)
    assert "<CL1>the job stalls</CL1>" in t
    assert "<CL2>requeue it</CL2>" in t
    # Default lexicon has no "whenever"; sentence is a single clause.
    assert "<CL2>" not in tag_clauses("whenever the job stalls then requeue it", Lexicon())
