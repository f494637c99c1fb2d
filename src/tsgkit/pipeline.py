"""End-to-end orchestration: document -> statements -> classified, parsed
entries -> schematized JSON -> notebook-style workflow."""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring
from math import inf

from .clauses import Lexicon
from .extract import ParsedComponent, ParserRegistry, extract
from .identify import Prototype, classify_batch
from .ingest import RawDocument, Warning_, clean_document, segment
from .siamese import SiameseModel
from .vectorize import Vocabulary, encode

# Constituents a component must parse before its statement counts as
# automatable.  natural_language is handled separately (condition needed).
REQUIRED_CONSTITUENTS: dict[str, tuple[str, ...]] = {
    "powershell": ("command",),
    "torus": ("command",),
    "merlin": ("command",),
    "kusto": ("query",),
    "adf": ("subscription",),
    "jarvis": ("url",),
    "natural_language": (),
}

LANGUAGE_TAGS: dict[str, str] = {
    "kusto": "kusto",
    "powershell": "powershell",
    "torus": "torus",
    "merlin": "merlin",
    "adf": "link",
    "jarvis": "link",
    "natural_language": "text",
}

REVIEW_MARKER = "# requires human review"

# Decimal places of `similarity` in the schema JSON, as `tsgkit classify`
# prints it; `schematized_to_json` says why it is rounded.
SIMILARITY_DECIMALS = 6


@dataclass
class Entry:
    """One classified, parsed statement of a schematized guide.

    `similarity` keeps full float precision here; `schematized_to_json`
    writes it rounded to `SIMILARITY_DECIMALS` (6) decimal places, because
    its low bits depend on the BLAS that the model was trained with.
    """

    line_start: int
    line_end: int
    raw: str
    component: str
    similarity: float
    parsed: ParsedComponent
    automatable: bool


@dataclass
class SchematizedTSG:
    source_name: str
    entries: list[Entry] = field(default_factory=list)
    warnings: list[Warning_] = field(default_factory=list)


def _is_automatable(component: str, parsed: ParsedComponent) -> bool:
    # A component without a cell rule (a user's own label) stays prose.
    if component not in LANGUAGE_TAGS:
        return False
    if component == "natural_language":
        return "condition" in parsed.constituents
    required = REQUIRED_CONSTITUENTS.get(component, ())
    return not any(name in parsed.missing for name in required)


def schematize(
    doc: RawDocument,
    model: SiameseModel,
    vocab: Vocabulary,
    protos: list[Prototype],
    registry: ParserRegistry,
    lexicon: Lexicon = Lexicon(),
) -> SchematizedTSG:
    result = SchematizedTSG(doc.source_name)
    cleaned = clean_document(doc)
    statements = segment(cleaned, warnings=result.warnings)
    max_len = model.hyper.max_len
    classes = classify_batch(model, protos, [encode(s, vocab, max_len) for s in statements])
    for stmt, cls in zip(statements, classes):
        parsed = extract(stmt, cls.label, registry, lexicon, warnings=result.warnings)
        result.entries.append(
            Entry(
                stmt.line_start,
                stmt.line_end,
                stmt.raw,
                cls.label,
                cls.similarity,
                parsed,
                _is_automatable(cls.label, parsed),
            )
        )
    return result


def schematized_to_json(s: SchematizedTSG) -> str:
    """Serialize a schematized guide as indented JSON.

    `similarity` is written rounded to `SIMILARITY_DECIMALS` (6) decimal
    places.  A BLAS sums partial products in an order that depends on its
    build and, unless `siamese.train` could pin it to one thread, on its
    thread count, so such a model differs in its last bits and its
    similarities differ by around 1e-12.  Rounding makes the JSON bytes
    independent of that; only a value within about 1e-11 of a rounding
    midpoint could still round differently.  `Entry.similarity` keeps full
    precision, so the winning label is unaffected.
    """
    payload = {
        "source": s.source_name,
        "entries": [
            {
                "line_start": e.line_start,
                "line_end": e.line_end,
                "raw": e.raw,
                "component": e.component,
                "similarity": round(e.similarity, SIMILARITY_DECIMALS),
                "parsed": {
                    "constituents": e.parsed.constituents,
                    "missing": sorted(e.parsed.missing),
                },
                "automatable": e.automatable,
            }
            for e in s.entries
        ],
        "warnings": [
            {"kind": w.kind, "message": w.message, "line": w.line} for w in s.warnings
        ],
    }
    return _indented(payload) + "\n"


def _indented(x: object, newline: str = "\n") -> str:
    """`json.dumps(x, indent=2, ensure_ascii=False)`, byte for byte, for
    str, list and str-keyed dict (exact types), int, float, bool and None.

    Any `indent` makes `json` fall back to its pure-Python encoder; this
    recursion formats the same text with its C string encoder.  `newline`
    is a line break plus the indentation of the line that holds x.
    """
    t = type(x)
    if t is str:
        return encode_basestring(x)
    if t is dict:
        inner = newline + "  "
        # encode_basestring raises TypeError for a key that is not a str.
        items = [encode_basestring(k) + ": " + _indented(v, inner) for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    if t is list:
        inner = newline + "  "
        items = [_indented(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    if x is None:
        return "null"
    if t is bool:
        return "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if x != x:
            return "NaN"
        return float.__repr__(x) if -inf < x < inf else "Infinity" if x > 0 else "-Infinity"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


@dataclass
class Cell:
    kind: str  # code | markdown
    language_tag: str
    source: str
    origin_lines: tuple[int, int]


@dataclass
class Workflow:
    cells: list[Cell] = field(default_factory=list)


def _interleave_params(parsed: ParsedComponent) -> list[str]:
    names = parsed.constituents.get("param_name", [])
    values = parsed.constituents.get("param_value", [])
    out: list[str] = []
    for name, value in zip(names, values):
        out += [name, value]
    out += list(parsed.constituents.get("argument", []))
    return out


def _code_source(entry: Entry) -> str:
    parsed = entry.parsed
    if entry.component == "kusto":
        return entry.raw
    if entry.component in ("adf", "jarvis"):
        return entry.raw
    if entry.component == "natural_language":
        condition = parsed.constituents.get("condition", "")
        action = parsed.constituents.get("action", "<fill in the action>")
        return f"{REVIEW_MARKER}\nIF {condition} THEN {action}"
    parts: list[str] = []
    variable = parsed.constituents.get("variable")
    if variable:
        parts += [variable, "="]
    command = parsed.constituents.get("command")
    if command:
        parts.append(command)
    parts += _interleave_params(parsed)
    return " ".join(parts)


def emit_workflow(s: SchematizedTSG) -> Workflow:
    """One cell per entry; automatable entries become code cells."""
    wf = Workflow()
    for entry in s.entries:
        if entry.automatable:
            tag = LANGUAGE_TAGS[entry.component]
            wf.cells.append(
                Cell("code", tag, _code_source(entry), (entry.line_start, entry.line_end))
            )
        else:
            wf.cells.append(
                Cell("markdown", "text", entry.raw, (entry.line_start, entry.line_end))
            )
    return wf


def workflow_to_json(wf: Workflow) -> str:
    def source_lines(text: str) -> list[str]:
        lines = text.split("\n")
        return [ln + "\n" for ln in lines[:-1]] + [lines[-1]]

    payload = {
        "cells": [
            {
                "cell_type": c.kind,
                "metadata": {
                    "language_tag": c.language_tag,
                    "origin": [c.origin_lines[0], c.origin_lines[1]],
                },
                "source": source_lines(c.source),
            }
            for c in wf.cells
        ]
    }
    return _indented(payload) + "\n"
