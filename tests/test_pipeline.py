import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import read_golden
from tsgkit.corpusgen import CLASSES
from tsgkit.extract import ParsedComponent
from tsgkit.identify import compute_prototypes
from tsgkit.ingest import RawDocument, Statement, clean_document, tokenize
from tsgkit.pipeline import (
    Entry,
    SchematizedTSG,
    emit_workflow,
    schematize,
    schematized_to_json,
    workflow_to_json,
)
from tsgkit.siamese import Hyper, init_model
from tsgkit.vectorize import build_vocabulary, encode


@pytest.fixture(scope="module")
def schema(sample_doc, trained, registry):
    model, vocab, protos = trained
    return schematize(sample_doc, model, vocab, protos, registry)


def test_sample_document_schematizes_fully(schema):
    assert [e.component for e in schema.entries] == [
        "natural_language",
        "natural_language",
        "natural_language",
        "natural_language",
        "kusto",
        "torus",
        "powershell",
        "merlin",
        "adf",
        "jarvis",
        "natural_language",
    ]
    assert sum(e.automatable for e in schema.entries) == 7


def test_entries_ordered_by_line(schema):
    starts = [e.line_start for e in schema.entries]
    assert starts == sorted(starts)


def test_empty_document(trained, registry):
    model, vocab, protos = trained
    out = schematize(RawDocument("", "empty.md"), model, vocab, protos, registry)
    assert out.entries == []
    assert emit_workflow(out).cells == []


def test_pure_prose_line_not_automatable(trained, registry):
    model, vocab, protos = trained
    out = schematize(
        RawDocument("Escalate to the capacity team.", "one.md"),
        model, vocab, protos, registry,
    )
    assert len(out.entries) == 1
    entry = out.entries[0]
    assert entry.component == "natural_language"
    assert not entry.automatable
    assert "condition" not in entry.parsed.constituents


def test_conditional_line_is_automatable(trained, registry):
    model, vocab, protos = trained
    out = schematize(
        RawDocument("If the status is False delete the resource", "c.md"),
        model, vocab, protos, registry,
    )
    entry = out.entries[0]
    assert entry.automatable
    assert entry.parsed.constituents["condition"] == "the status is False"


def test_torus_cell_reconstructed_from_constituents():
    parsed = ParsedComponent(
        "torus",
        {
            "variable": "$rules",
            "command": "Get-TransportRule",
            "param_name": ["-Organization"],
            "param_value": ["$org"],
        },
    )
    entry = Entry(1, 1, "raw text ignored", "torus", 0.9, parsed, True)
    wf = emit_workflow(SchematizedTSG("t", [entry]))
    assert wf.cells[0].kind == "code"
    assert wf.cells[0].source == "$rules = Get-TransportRule -Organization $org"


def test_conditional_stub_cell():
    parsed = ParsedComponent(
        "natural_language", {"condition": "the status is False", "action": "delete the resource"}
    )
    entry = Entry(3, 3, "If the status is False delete the resource", "natural_language", 0.9, parsed, True)
    wf = emit_workflow(SchematizedTSG("t", [entry]))
    assert wf.cells[0].kind == "code"
    assert "IF the status is False THEN delete the resource" in wf.cells[0].source


def test_all_prose_document_is_all_markdown(trained, registry):
    model, vocab, protos = trained
    doc = RawDocument("Check the dashboard.\n\nEscalate if needed.", "p.md")
    wf = emit_workflow(schematize(doc, model, vocab, protos, registry))
    assert all(c.kind == "markdown" for c in wf.cells)


def test_code_cells_iff_automatable(schema):
    wf = emit_workflow(schema)
    assert len(wf.cells) == len(schema.entries)
    for cell, entry in zip(wf.cells, schema.entries):
        assert (cell.kind == "code") == entry.automatable


def assert_each_nonblank_line_in_one_cell(doc, wf):
    covered = set()
    for cell in wf.cells:
        lo, hi = cell.origin_lines
        for line in range(lo, hi + 1):
            assert line not in covered, f"line {line} in two cells"
            covered.add(line)
    for lineno, text in enumerate(clean_document(doc).text.split("\n"), start=1):
        if text.strip():
            assert lineno in covered, f"line {lineno} lost"


def test_provenance_every_surviving_line_in_one_cell(sample_doc, schema):
    assert_each_nonblank_line_in_one_cell(sample_doc, emit_workflow(schema))


def test_schema_json_golden(schema):
    assert schematized_to_json(schema) == read_golden("sample_tsg.schema.json")


def test_schema_json_similarity_ignores_low_bits():
    # Training under different BLAS thread counts moves similarities by ~1e-12.
    def doc(similarity):
        parsed = ParsedComponent("kusto", {"query": "T | count"})
        return SchematizedTSG("t.md", [Entry(1, 1, "T | count", "kusto", similarity, parsed, True)])

    a = schematized_to_json(doc(0.8953126071211378))
    b = schematized_to_json(doc(0.8953126071211378 + 1e-12))
    assert a == b
    emitted = json.loads(a)["entries"][0]["similarity"]
    assert emitted == 0.895313
    assert len(repr(emitted).split(".")[1]) <= 6


def test_workflow_json_golden(schema):
    assert workflow_to_json(emit_workflow(schema)) == read_golden("sample_tsg.workflow.json")


def test_workflow_json_shape(schema):
    payload = json.loads(workflow_to_json(emit_workflow(schema)))
    for cell in payload["cells"]:
        assert set(cell) == {"cell_type", "metadata", "source"}
        assert cell["cell_type"] in ("code", "markdown")
        assert set(cell["metadata"]) == {"language_tag", "origin"}
        assert isinstance(cell["source"], list)


def test_schema_json_shape(schema):
    payload = json.loads(schematized_to_json(schema))
    assert set(payload) == {"source", "entries", "warnings"}
    for entry in payload["entries"]:
        assert list(entry) == [
            "line_start", "line_end", "raw", "component",
            "similarity", "parsed", "automatable",
        ]


# --- robustness on Markdown-like input ----------------------------------------

# Pieces of the Markdown a guide may hold, plus text it should not: stray
# and unbalanced braces, pipe runs, fences, URLs, image embeds, non-ASCII
# text, control characters, and lines far longer than `max_len` tokens.
FRAGMENTS = (
    "{", "}", "{{", "}}", "{ $x = 1", "|", "||", "| a | b |", "| where x > 1",
    "```", "```powershell", "# Heading", "- item", "> quote", "<br>", "<tenant id>",
    "https://portal.example.com/a?b=c&d=%20", "![graph](img/a.png)", "[link](x)",
    "$rules = Get-TransportRule -Organization $org", "StormEvents | count",
    "If the status is False delete the resource", "Ünïcödé ✓ 日本語 🙂",
    "\r", "\t", "\x00", " ", "word " * 60,
)
LINES = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=30)), max_size=5
).map("".join)
DOCUMENTS = st.lists(LINES, max_size=12).map("\n".join)


@pytest.fixture(scope="module")
def untrained():
    """(model, vocab, prototypes) of an untrained network over a tiny vocabulary."""
    texts = [
        "run the pipeline", "open the dashboard", "StormEvents | count",
        "$x = Get-Item", "tail the logs", "merlin run job", "if it fails retry",
    ]
    statements = [Statement(t, 1, 1, tuple(tokenize(t))) for t in texts]
    vocab = build_vocabulary(statements)
    model = init_model(vocab.size, Hyper(max_len=8, seed=5))
    support = {
        label: [encode(stmt, vocab, model.hyper.max_len)]
        for label, stmt in zip(CLASSES, statements)
    }
    return model, vocab, compute_prototypes(model, support)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=DOCUMENTS)
def test_markdown_like_input_never_crashes(text, untrained, registry):
    model, vocab, protos = untrained
    doc = RawDocument(text, "fuzz.md")
    schema = schematize(doc, model, vocab, protos, registry)
    workflow = emit_workflow(schema)
    json.loads(schematized_to_json(schema))
    json.loads(workflow_to_json(workflow))
    assert_each_nonblank_line_in_one_cell(doc, workflow)
