"""Apply synthesized parsers to classified statements.

A registry maps (component, constituent) to a program plus flags.
Repeating constituents of a component are extracted together in an
iterative loop: evaluate all first-occurrence parsers, record the tuple,
delete the extracted values, repeat until a parser fails.  Parser
failures are recorded as data (the `missing` set), never raised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .clauses import Lexicon, tag_clauses
from .config import read_lines
from .dsl import EvalFailure, ExtractionProgram, eval_program, parse, serialize
from .ingest import Statement, Warning_

REGISTRY_HEADER = "# tsgkit parser registry v1"


@dataclass(frozen=True)
class RegistryEntry:
    component: str
    constituent: str
    program: ExtractionProgram
    repeats: bool = False
    preprocess: tuple[str, ...] = ()


@dataclass
class ParserRegistry:
    entries: list[RegistryEntry] = field(default_factory=list)

    def put(self, entry: RegistryEntry) -> None:
        for i, existing in enumerate(self.entries):
            if (existing.component, existing.constituent) == (
                entry.component,
                entry.constituent,
            ):
                self.entries[i] = entry
                return
        self.entries.append(entry)

    def for_component(self, component: str) -> list[RegistryEntry]:
        return [e for e in self.entries if e.component == component]


def save_registry(registry: ParserRegistry, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(REGISTRY_HEADER + "\n")
        for e in registry.entries:
            flags = ",".join(e.preprocess) if e.preprocess else "-"
            fh.write(
                f"{e.component}\t{e.constituent}\t{int(e.repeats)}\t{flags}\t"
                f"{serialize(e.program)}\n"
            )


def load_registry(path: str) -> ParserRegistry:
    """Errors name `path:line`."""
    registry = ParserRegistry()
    # Only "\n" ends an entry, as read_lines splits: str.splitlines() would
    # also split on characters a program constant may hold, such as U+2028.
    lines = read_lines(path)
    if not lines or lines[0] != REGISTRY_HEADER:
        raise ValueError(f"{path}: not a parser registry file")
    try:
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            component, constituent, repeats, flags, text = line.split("\t", 4)
            registry.put(
                RegistryEntry(
                    component,
                    constituent,
                    parse(text),
                    repeats=repeats == "1",
                    preprocess=() if flags == "-" else tuple(flags.split(",")),
                )
            )
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None
    return registry


@dataclass
class ParsedComponent:
    component: str
    constituents: dict[str, object] = field(default_factory=dict)
    missing: set[str] = field(default_factory=set)


# One segment: runs of plain characters and quoted strings, where a quote
# left open runs to the end of the text.
_PIPE_SEGMENT_RE = re.compile(r"""(?:[^|"']+|"[^"]*"?|'[^']*'?)+""")


def split_pipes(text: str) -> list[str]:
    """Split on top-level '|' outside single/double quotes; segments trimmed."""
    return [seg for seg in map(str.strip, _PIPE_SEGMENT_RE.findall(text)) if seg]


def extract_repeating(
    component_text: str,
    first_parsers: list[ExtractionProgram],
    max_iterations: int = 100,
    warnings: list[Warning_] | None = None,
    line: int = 0,
) -> list[tuple[str, ...]]:
    """Repeatedly extract first constituents and delete them from the text.

    Hitting `max_iterations` warns at `line`, where the text's statement starts.
    """
    if not first_parsers:
        raise ValueError("need at least one parser")
    working = component_text
    tuples: list[tuple[str, ...]] = []
    iterations = 0
    while True:
        values = []
        try:
            for prog in first_parsers:
                v = eval_program(prog, working)
                if not v:
                    raise EvalFailure("empty extraction")
                values.append(v)
        except EvalFailure:
            break
        if iterations >= max_iterations:
            if warnings is not None:
                warnings.append(
                    Warning_(
                        "IterationLimitExceeded",
                        f"stopped after {max_iterations} iterations on "
                        f"{component_text[:40]!r}",
                        line,
                    )
                )
            break
        tuples.append(tuple(values))
        iterations += 1
        # Delete leftmost occurrences; on overlap the longest value goes first.
        remaining = list(values)
        while remaining:
            located = [
                (working.find(v), -len(v), i)
                for i, v in enumerate(remaining)
                if v in working
            ]
            if not located:
                break
            _, _, i = min(located)
            v = remaining.pop(i)
            at = working.find(v)
            working = working[:at] + working[at + len(v) :]
    return tuples


def _apply_preprocess(
    raw: str, flags: tuple[str, ...], lexicon: Lexicon
) -> list[str]:
    text = raw
    if "tag_clauses" in flags:
        text = tag_clauses(text, lexicon)
    if "split_pipes" in flags:
        return split_pipes(text)
    return [text]


def extract(
    stmt: Statement,
    component: str,
    registry: ParserRegistry,
    lexicon: Lexicon = Lexicon(),
    warnings: list[Warning_] | None = None,
) -> ParsedComponent:
    """Run every registered parser for the component over the statement.

    The statement is preprocessed once per distinct flag tuple.
    """
    result = ParsedComponent(component)
    entries = registry.for_component(component)
    repeating = [e for e in entries if e.repeats]
    segments = {
        flags: _apply_preprocess(stmt.raw, flags, lexicon)
        for flags in {e.preprocess for e in entries}
    }
    for entry in entries:
        if entry.repeats:
            continue
        value = None
        for segment in segments[entry.preprocess]:
            try:
                value = eval_program(entry.program, segment)
                break
            except EvalFailure:
                continue
        if value is None:
            result.missing.add(entry.constituent)
        else:
            result.constituents[entry.constituent] = value
    if repeating:
        tuples: list[tuple[str, ...]] = []
        for segment in segments[repeating[0].preprocess]:
            tuples.extend(
                extract_repeating(
                    segment, [e.program for e in repeating], warnings=warnings,
                    line=stmt.line_start,
                )
            )
        for pos, entry in enumerate(repeating):
            result.constituents[entry.constituent] = [t[pos] for t in tuples]
    return result
