"""Lexicon-driven clause tagging for natural-language conditionals.

Wraps the condition clause in <CL1>...</CL1> and the action clause in
<CL2>...</CL2> so extraction programs can anchor on the tags instead of
punctuation.  A transparent approximation of constituency tagging: the
boundary between clauses is the first comma, or the first second-clause
signal word after the clause opener.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .config import numbered_lines

DEFAULT_SUBORDINATORS = ("if", "when", "once", "in case", "unless")
DEFAULT_SECOND_CLAUSE_SIGNALS = (
    "then",
    "you",
    "we",
    "please",
    "contact",
    "run",
    "check",
    "create",
    "delete",
    "use",
    "can",
    "should",
    "must",
    "it is",
    "it's",
)

TAG_RE = re.compile(r"</?CL[0-9]+>")


@dataclass(frozen=True)
class Lexicon:
    subordinators: tuple[str, ...] = DEFAULT_SUBORDINATORS
    second_clause_signals: tuple[str, ...] = DEFAULT_SECOND_CLAUSE_SIGNALS


def load_lexicon(path: str) -> Lexicon:
    """Plain-text lexicon: one phrase per line under [section] headers.

    Errors name `path:line`.
    """
    sections: dict[str, list[str]] = {"subordinators": [], "second_clause_signals": []}
    current = None
    with numbered_lines(path) as lines:
        for _, raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1]
                if current not in sections:
                    raise ValueError(f"unknown lexicon section {current!r}")
                continue
            if current is None:
                raise ValueError("lexicon phrase outside any section")
            sections[current].append(line.lower())
    return Lexicon(
        subordinators=tuple(sections["subordinators"]),
        second_clause_signals=tuple(sections["second_clause_signals"]),
    )


def strip_tags(text: str) -> str:
    return TAG_RE.sub("", text)


def _word_spans(s: str) -> list[tuple[str, int, int]]:
    return [(m.group(0), m.start(), m.end()) for m in re.finditer(r"\S+", s)]


def _norm(token: str) -> str:
    return token.strip(".,;:!?\"'()").lower()


@lru_cache(maxsize=16)
def _by_length(phrases: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """Each phrase's words, longest phrase first (ties keep lexicon order)."""
    split = (tuple(p.split()) for p in phrases)
    return tuple(sorted((w for w in split if w), key=lambda w: -len(w)))


def _phrase_at(norms: tuple[str, ...], i: int, phrases: tuple[tuple[str, ...], ...]) -> int:
    """Length in words of the first of `phrases` that the normalized words
    match at index i < len(norms), or 0."""
    for words in phrases:
        if words[0] == norms[i] and norms[i : i + len(words)] == words:
            return len(words)
    return 0


def _cl1_only(sentence: str, a: int, b: int) -> str:
    """`sentence` with the span [a, b) wrapped as the only clause."""
    return sentence[:a] + "<CL1>" + sentence[a:b] + "</CL1>" + sentence[b:]


def tag_clauses(sentence: str, lexicon: Lexicon = Lexicon()) -> str:
    """Always returns a tagging; strip_tags() recovers the input exactly."""
    if not sentence:
        raise ValueError("sentence must be non-empty")
    words = _word_spans(sentence)
    if not words:
        return sentence

    norms = tuple([_norm(w) for w, _, _ in words])
    sub_len = _phrase_at(norms, 0, _by_length(lexicon.subordinators))

    rest = words[sub_len:]
    if not sub_len or not rest:
        return _cl1_only(sentence, words[0][1], words[-1][2])

    comma_pos = sentence.find(",", rest[0][1])

    signals = _by_length(lexicon.second_clause_signals)
    # A signal at the very start of the remainder would leave the condition
    # empty, so the scan starts at the second remainder token.
    signal_pos = -1
    for i in range(sub_len + 1, len(words)):
        if _phrase_at(norms, i, signals):
            signal_pos = words[i][1]
            break

    boundaries = [p for p in (comma_pos, signal_pos) if p >= 0]
    if not boundaries:
        return _cl1_only(sentence, rest[0][1], rest[-1][2])

    boundary = min(boundaries)
    cl1_start = rest[0][1]
    cl1_end = boundary
    while cl1_end > cl1_start and sentence[cl1_end - 1].isspace():
        cl1_end -= 1

    cl2_start = boundary
    if boundary == comma_pos and (signal_pos < 0 or comma_pos <= signal_pos):
        cl2_start = boundary + 1
    while cl2_start < len(sentence) and sentence[cl2_start].isspace():
        cl2_start += 1
    # A leading "then" belongs to the boundary, not the action clause.
    then_words = [w for w in _word_spans(sentence[cl2_start:])]
    if then_words and _norm(then_words[0][0]) == "then":
        cl2_start += then_words[0][2]
        while cl2_start < len(sentence) and sentence[cl2_start].isspace():
            cl2_start += 1
    cl2_end = len(sentence)
    while cl2_end > cl2_start and sentence[cl2_end - 1].isspace():
        cl2_end -= 1

    pieces = [
        sentence[:cl1_start],
        "<CL1>",
        sentence[cl1_start:cl1_end],
        "</CL1>",
        sentence[cl1_end:cl2_start],
    ]
    if cl2_end > cl2_start:
        pieces += ["<CL2>", sentence[cl2_start:cl2_end], "</CL2>", sentence[cl2_end:]]
    else:
        pieces.append(sentence[cl2_start:])
    return "".join(pieces)
