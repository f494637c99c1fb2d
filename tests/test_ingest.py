import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsgkit import ingest
from tsgkit.ingest import RawDocument, Statement, Warning_, clean_document, segment, tokenize


def doc(text: str) -> RawDocument:
    return RawDocument(text, "test.md")


# --- cleaning ----------------------------------------------------------------


def test_image_line_removed_line_numbers_kept():
    cleaned = clean_document(doc("step1\n![img](a.png)\nstep2"))
    assert cleaned.text == "step1\n\nstep2"
    stmts = segment(cleaned)
    assert [(s.raw, s.line_start) for s in stmts] == [("step1", 1), ("step2", 3)]


def test_empty_document():
    assert clean_document(doc("")).text == ""
    assert segment(doc("")) == []


# Expected output derived by hand: line 2 is a table row (starts/ends with
# '|', three pipes), line 4 carries an inline image, line 5 an HTML tag.
FIVE_LINE_DOC = "intro text\n| col1 | col2 |\nStormEvents\nsee ![d](x.png) chart\n<br>\n"
FIVE_LINE_CLEANED = "intro text\n\nStormEvents\nsee  chart\n\n"


def test_five_line_golden():
    assert clean_document(doc(FIVE_LINE_DOC)).text == FIVE_LINE_CLEANED


def test_table_row_requires_both_edges():
    kept = "| where State == \"FLORIDA\""
    assert clean_document(doc(kept)).text == kept


def test_tsg_placeholder_angle_text_survives():
    line = '$tenant = "<your tenant id/name>"'
    assert clean_document(doc(line)).text == line


def test_html_tags_stripped_inline():
    assert clean_document(doc("a <b>bold</b> word")).text == "a bold word"


def test_untouched_lines_preserved_byte_for_byte():
    text = "  indented   line\t\nanother\n"
    assert clean_document(doc(text)).text == text


# --- segmentation ------------------------------------------------------------


def test_kusto_continuation_merges():
    stmts = segment(doc('StormEvents\n| where State == "FLORIDA"\n| count'))
    assert len(stmts) == 1
    assert stmts[0].raw == 'StormEvents | where State == "FLORIDA" | count'
    assert (stmts[0].line_start, stmts[0].line_end) == (1, 3)


def test_blank_lines_split_statements():
    stmts = segment(doc("line a\n\nline b"))
    assert [s.raw for s in stmts] == ["line a", "line b"]


def test_brace_block_merges():
    stmts = segment(doc("if ($x) {\n  Do-Thing\n}"))
    assert len(stmts) == 1
    assert stmts[0].raw == "if ($x) { Do-Thing }"
    assert (stmts[0].line_start, stmts[0].line_end) == (1, 3)


def test_unbalanced_brace_warns_and_emits():
    warnings = []
    stmts = segment(doc("start {\n  body"), warnings=warnings)
    assert len(stmts) == 1
    assert stmts[0].raw == "start { body"
    assert warnings and warnings[0].kind == "UnbalancedBraces"


def test_indentation_removed_around_pipe():
    stmts = segment(doc("StormEvents\n    | count"))
    assert stmts[0].raw == "StormEvents | count"


def test_segment_order_preserving():
    text = "alpha\nbeta\n\ngamma\n"
    stmts = segment(doc(text))
    assert [s.raw for s in stmts] == ["alpha", "beta", "gamma"]
    starts = [s.line_start for s in stmts]
    assert starts == sorted(starts)


@given(st.lists(st.sampled_from(["plain line", "", "  spaced  ", "word"]), max_size=10))
def test_segment_total_recovers_simple_lines(lines):
    text = "\n".join(lines)
    stmts = segment(doc(text))
    assert [s.raw for s in stmts] == [ln.strip() for ln in lines if ln.strip()]


def test_statement_invariants():
    for s in segment(doc("a\nb {\nc\n}\nd")):
        assert s.line_start <= s.line_end
        assert len(s.tokens) >= 1


def reference_segment(doc, warnings=None):
    """Segmentation as first written: a pending brace block, and a pipe line
    that pops the previous statement and re-tokenizes the merged text."""
    statements = []
    pending = None
    depth = 0

    def flush(raw, start, end):
        statements.append(Statement(raw, start, end, tuple(tokenize(raw))))

    for idx, line in enumerate(doc.text.split("\n"), start=1):
        t = line.strip()
        if not t:
            continue
        opens, closes = t.count("{"), t.count("}")
        if pending is not None:
            pending["raw"] += " " + t
            pending["end"] = idx
            depth += opens - closes
            if depth <= 0:
                flush(pending["raw"], pending["start"], pending["end"])
                pending = None
                depth = 0
            continue
        if t.startswith("|") and statements:
            prev = statements.pop()
            flush(prev.raw + " " + t, prev.line_start, idx)
            continue
        if opens > closes:
            pending = {"raw": t, "start": idx, "end": idx}
            depth = opens - closes
            continue
        flush(t, idx, idx)

    if pending is not None:
        if warnings is not None:
            warnings.append(
                Warning_(
                    "UnbalancedBraces",
                    "opening brace never closed; block emitted as-is",
                    pending["start"],
                )
            )
        flush(pending["raw"], pending["start"], pending["end"])
    return statements


SEGMENT_LINES = st.sampled_from(
    ["{", "}", "{{", "}}", "| where x > 1", "| b {", "| }", "  |x", "", "   ",
     "text", "a {", "b }", "c } {", "if ($x) { Do-It }", "Get-Item $y"]
)


def _segment_view(stmts, warnings):
    return (
        [(s.raw, s.line_start, s.line_end, s.tokens) for s in stmts],
        [(w.kind, w.line, w.message) for w in warnings],
    )


@given(st.lists(SEGMENT_LINES, max_size=16))
def test_segment_matches_reference(lines):
    d = doc("\n".join(lines))
    got_w, want_w = [], []
    got = segment(d, warnings=got_w)
    want = reference_segment(d, warnings=want_w)
    assert _segment_view(got, got_w) == _segment_view(want, want_w)


def test_pipe_after_closed_block_joins_it():
    stmts = segment(doc("a {\n}\n| b"))
    assert [(s.raw, s.line_start, s.line_end) for s in stmts] == [("a { } | b", 1, 3)]


def test_pipe_line_with_brace_opens_no_block():
    warnings = []
    stmts = segment(doc("a\n| b {\nc"), warnings=warnings)
    assert [(s.raw, s.line_start, s.line_end) for s in stmts] == [
        ("a | b {", 1, 2),
        ("c", 3, 3),
    ]
    assert warnings == []


def test_pipe_inside_unclosed_block_joins_and_warns_at_first_line():
    warnings = []
    stmts = segment(doc("a {{\n}\n| p"), warnings=warnings)
    assert [s.raw for s in stmts] == ["a {{ } | p"]
    assert [(w.kind, w.line) for w in warnings] == [("UnbalancedBraces", 1)]


def test_long_pipe_run_tokenizes_each_statement_once(monkeypatch):
    calls = []

    def counting_tokenize(raw):
        calls.append(len(raw))
        return tokenize(raw)

    monkeypatch.setattr(ingest, "tokenize", counting_tokenize)
    text = "StormEvents\n" + "\n".join("| where x > 1" for _ in range(2000)) + "\nnext"
    stmts = segment(doc(text))
    assert [(s.line_start, s.line_end) for s in stmts] == [(1, 2001), (2002, 2002)]
    assert len(calls) == len(stmts)


# --- tokenizer ---------------------------------------------------------------


def test_command_and_punctuation_golden():
    assert tokenize("Get-TransportRule -Organization $org") == [
        "get-transportrule",
        "-",
        "organization",
        "$",
        "org",
    ]


def test_url_is_single_token_and_case_preserved():
    tokens = tokenize("see https://jarvis.msft.net/dashboard/share/XY now")
    assert tokens == ["see", "https://jarvis.msft.net/dashboard/share/XY", "now"]


def test_camel_case_emits_whole_and_parts():
    assert tokenize("senderOrRecipientMailbox") == [
        "senderorrecipientmailbox",
        "sender",
        "or",
        "recipient",
        "mailbox",
    ]


def test_kusto_statement_tokens():
    tokens = tokenize('StormEvents | where State == "FLORIDA" | count')
    assert tokens[:4] == ["stormevents", "storm", "events", "|"]
    assert tokens.count("=") == 2
    assert "florida" in tokens


def test_tokenize_rejects_empty():
    with pytest.raises(ValueError):
        tokenize("")


@given(
    st.text(
        alphabet="abcDEFgh-$.|=123 ",
        min_size=1,
        max_size=30,
    ).filter(str.strip)
)
def test_tokenize_deterministic_and_idempotent(raw):
    tokens = tokenize(raw)
    assert tokens == tokenize(raw)
    for tok in tokens:
        if "://" in tok:
            continue
        assert tokenize(tok) == [tok]


def test_fixture_statement_tokens_idempotent():
    for raw in [
        "Test-PolicyDistributionStatus -Org nybc.com -PolicyId 8dbdfce9 -Verbose True",
        "Update-GridTenantProvisioningStamp $TenantId",
        "If the status is False delete the resource",
    ]:
        for tok in tokenize(raw):
            if "://" not in tok:
                assert tokenize(tok) == [tok], tok


# The tokenizer as it was before its fast path (finditer, a camel-case
# search on every word, each token lowered where it is made): the
# reference the tokenizer must match token for token.
_REF_URL_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*://\S+")
_REF_COMMAND_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*(?:-[A-Za-z][A-Za-z0-9]*)+")
_REF_WORD_OR_PUNCT_RE = re.compile(r"[A-Za-z0-9]+|[^A-Za-z0-9\s]")
_REF_CAMEL_SPLIT_RE = re.compile(r"(?<=[a-z])(?=[A-Z])")


def _reference_split(fragment):
    tokens = []
    for m in _REF_WORD_OR_PUNCT_RE.finditer(fragment):
        text = m.group(0)
        tokens.append(text)
        if text.isalnum() and _REF_CAMEL_SPLIT_RE.search(text):
            tokens.extend(_REF_CAMEL_SPLIT_RE.split(text))
    return tokens


def _reference_plain(text):
    tokens = []
    pos = 0
    for cm in _REF_COMMAND_RE.finditer(text):
        before, after = cm.start() - 1, cm.end()
        if before >= 0 and (text[before].isalnum() or text[before] == "-"):
            continue
        if after < len(text) and (text[after].isalnum() or text[after] == "-"):
            continue
        tokens.extend(t.lower() for t in _reference_split(text[pos : cm.start()]))
        tokens.append(cm.group(0).lower())
        pos = cm.end()
    tokens.extend(t.lower() for t in _reference_split(text[pos:]))
    return tokens


def reference_tokenize(raw):
    tokens = []
    pos = 0
    for um in _REF_URL_RE.finditer(raw):
        tokens.extend(_reference_plain(raw[pos : um.start()]))
        tokens.append(um.group(0))
        pos = um.end()
    tokens.extend(_reference_plain(raw[pos:]))
    return tokens


TOKEN_PIECES = (
    "https://portal.example.com/a?B=c", "ftp://X.y", "Get-Item", "-Force", "Set-AzVM-x",
    "senderOrRecipient", "HTTPServer", "ABC", "abc", "a1B2", "42", "3rd", "$env:Path",
    "Überprüfen", "ǅemal", "İstanbul", "队列", "ß", "½", "\t", "\n", "\x00", " ", "-",
    "|", "=", ".", "'", '"', "{", "}",
)
TOKEN_TEXT = st.lists(
    st.one_of(st.sampled_from(TOKEN_PIECES), st.text(max_size=6)), min_size=1, max_size=8
).map("".join).filter(bool)


@given(TOKEN_TEXT)
def test_tokenize_matches_reference(raw):
    assert tokenize(raw) == reference_tokenize(raw)
