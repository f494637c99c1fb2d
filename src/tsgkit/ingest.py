"""Markdown TSG ingestion: cleaning, statement segmentation, tokenization.

Cleaning blanks pruned content in place so line numbers keep referring to
the original document.  Segmentation merges Kusto pipe continuations (lines
starting with `|`) and brace-delimited script blocks into single statements,
in one pass whose cost is linear in the document.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True)
class RawDocument:
    text: str
    source_name: str

    def __post_init__(self):
        if not self.source_name:
            raise ValueError("source_name must be non-empty")


@dataclass(frozen=True)
class Statement:
    raw: str
    line_start: int
    line_end: int
    tokens: tuple[str, ...]

    def __post_init__(self):
        if self.line_start > self.line_end:
            raise ValueError("line_start must be <= line_end")
        if not self.raw.strip():
            raise ValueError("statement text must be non-blank")


@dataclass(frozen=True)
class Warning_:
    kind: str
    message: str
    line: int


_IMAGE_RE = re.compile(r"!\[[^\]]*\]\([^)]*\)")
# Only recognized HTML tag names are stripped; TSG text such as
# "<your tenant id/name>" must survive cleaning.
_HTML_TAG_RE = re.compile(
    r"</?(?:br|hr|p|b|i|u|em|strong|a|img|code|pre|div|span|table|thead|tbody"
    r"|tr|td|th|ul|ol|li|h[1-6]|sup|sub|details|summary)\b[^<>]*/?>",
    re.IGNORECASE,
)


def _is_table_row(line: str) -> bool:
    t = line.strip()
    return t.startswith("|") and t.endswith("|") and t.count("|") >= 2


def clean_document(doc: RawDocument) -> RawDocument:
    """Blank out images, Markdown table rows, and HTML tags, line count kept."""
    out_lines = []
    for line in doc.text.split("\n"):
        if _is_table_row(line):
            out_lines.append("")
            continue
        cleaned = _IMAGE_RE.sub("", line)
        cleaned = _HTML_TAG_RE.sub("", cleaned)
        if cleaned != line and not cleaned.strip():
            cleaned = ""
        out_lines.append(cleaned)
    return RawDocument("\n".join(out_lines), doc.source_name)


def segment(doc: RawDocument, warnings: list[Warning_] | None = None) -> list[Statement]:
    """One Statement per logical line, with continuations merged.

    A line joins the open statement while a brace block is open or when it
    starts with `|`; only a line inside a block moves the brace depth.  Each
    statement is tokenized once, when it closes, so cost is linear.
    """
    statements: list[Statement] = []
    lines: list[str] = []  # stripped lines of the open statement
    start = end = depth = 0

    def close():
        raw = " ".join(lines)
        statements.append(Statement(raw, start, end, tuple(tokenize(raw))))

    for idx, line in enumerate(doc.text.split("\n"), start=1):
        t = line.strip()
        if not t:
            continue
        delta = t.count("{") - t.count("}")
        if depth > 0:
            depth = max(depth + delta, 0)
        elif not (lines and t.startswith("|")):
            if lines:
                close()
            lines, start, depth = [], idx, max(delta, 0)
        lines.append(t)
        end = idx

    if depth > 0 and warnings is not None:
        message = "opening brace never closed; block emitted as-is"
        warnings.append(Warning_("UnbalancedBraces", message, start))
    if lines:
        close()
    return statements


_URL_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*://\S+")
_COMMAND_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*(?:-[A-Za-z][A-Za-z0-9]*)+")
_WORD_OR_PUNCT_RE = re.compile(r"[A-Za-z0-9]+|[^A-Za-z0-9\s]")
_CAMEL_SPLIT_RE = re.compile(r"(?<=[a-z])(?=[A-Z])")


def _split_words_and_punct(fragment: str) -> list[str]:
    tokens = []
    for text in _WORD_OR_PUNCT_RE.findall(fragment):
        tokens.append(text)
        # A lower-case word has no lower-to-upper step to split at.
        if not text.islower() and _CAMEL_SPLIT_RE.search(text):
            tokens.extend(_CAMEL_SPLIT_RE.split(text))
    return tokens


def tokenize(raw: str) -> list[str]:
    """URLs whole, command names whole, camel-case words emit their parts.

    Everything except URL tokens is lowercased.
    """
    if not raw:
        raise ValueError("tokenize requires non-empty input")
    tokens: list[str] = []
    pos = 0
    for um in _URL_RE.finditer(raw):
        tokens.extend(_tokenize_plain(raw[pos : um.start()]))
        tokens.append(um.group(0))
        pos = um.end()
    tokens.extend(_tokenize_plain(raw[pos:]))
    return tokens


def _tokenize_plain(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    for cm in _COMMAND_RE.finditer(text):
        before, after = cm.start() - 1, cm.end()
        # Whole-word command names only: not word/dash-adjacent on either side.
        if before >= 0 and (text[before].isalnum() or text[before] == "-"):
            continue
        if after < len(text) and (text[after].isalnum() or text[after] == "-"):
            continue
        tokens += _split_words_and_punct(text[pos : cm.start()])
        tokens.append(cm.group(0))
        pos = cm.end()
    tokens += _split_words_and_punct(text[pos:])
    return [t.lower() for t in tokens]
