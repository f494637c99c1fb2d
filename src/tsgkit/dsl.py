"""String-extraction DSL: AST, evaluation semantics, canonical text form.

A program is a switch of predicate-guarded branches with an optional
default; a branch concatenates constant strings and substrings of the
input, and a program with no cases is its default branch alone.
Substring boundaries are resolved through a fixed, ordered alphabet of
token classes; program ranking and predicate enumeration depend on that
order, so it must not be changed casually.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional


class EvalFailure(Exception):
    """A program could not produce a value for the given input."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class NoMatch(EvalFailure):
    pass


class OutOfRange(EvalFailure):
    pass


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


@dataclass(frozen=True)
class TokenClass:
    name: str
    pattern: str

    def matches(self, s: str) -> tuple[tuple[int, int], ...]:
        return _match_spans(self.name, s)


# Ordered alphabet. ClauseTag is appended last so it does not perturb the
# relative order of the core classes; it exists so programs can anchor on
# the <CL1>/<CL2> markers emitted by the clause tagger.
ALPHABET: tuple[TokenClass, ...] = (
    TokenClass("Alphanumeric", r"[A-Za-z0-9]+"),
    TokenClass("Alpha", r"[A-Za-z]+"),
    TokenClass("Digits", r"[0-9]+"),
    TokenClass("Whitespace", r"\s+"),
    TokenClass("Dollar", r"\$"),
    TokenClass("Dash", r"-"),
    TokenClass("Dot", r"\."),
    TokenClass("Slash", r"/"),
    TokenClass("Pipe", r"\|"),
    TokenClass("Quote", r"[\"']"),
    TokenClass("OpenBrace", r"\{"),
    TokenClass("CloseBrace", r"\}"),
    TokenClass("Comma", r","),
    TokenClass("Equals", r"="),
    TokenClass("DollarWord", r"\$[A-Za-z0-9]+"),
    TokenClass("DashWord", r"-[A-Za-z0-9]+"),
    TokenClass("DottedName", r"[A-Za-z0-9_.\-]+"),
    TokenClass("StartAnchor", r"^"),
    TokenClass("EndAnchor", r"\Z"),
    TokenClass("ClauseTag", r"</?CL[0-9]+>"),
)

CLASS_BY_NAME: dict[str, TokenClass] = {tc.name: tc for tc in ALPHABET}

_COMPILED: dict[str, re.Pattern] = {tc.name: re.compile(tc.pattern) for tc in ALPHABET}


@lru_cache(maxsize=200_000)
def _match_spans(name: str, s: str) -> tuple[tuple[int, int], ...]:
    """(start, end) of each match of class `name` in s; cached per (name, s).

    Matches are leftmost, non-overlapping, and longest for these patterns
    (all greedy).  A tuple, so no caller can change a cached result.
    """
    return tuple((m.start(), m.end()) for m in _COMPILED[name].finditer(s))


@dataclass(frozen=True)
class AbsPos:
    """Absolute offset; negative counts back from the end (-1 = len(s))."""

    k: int

    def resolve(self, s: str) -> int:
        i = self.k if self.k >= 0 else len(s) + self.k + 1
        if not 0 <= i <= len(s):
            raise OutOfRange(f"abs({self.k}) outside [0, {len(s)}]")
        return i


@dataclass(frozen=True)
class RegPos:
    """Boundary where a `left` match ends and/or a `right` match starts.

    Boundaries are counted left-to-right for occurrence > 0 and
    right-to-left for occurrence < 0.
    """

    left: Optional[TokenClass]
    right: Optional[TokenClass]
    occurrence: int

    def __post_init__(self):
        if self.left is None and self.right is None:
            raise ValueError("RegPos needs at least one token class")
        if self.occurrence == 0:
            raise ValueError("occurrence must be nonzero")

    def boundaries(self, s: str) -> list[int]:
        if self.left is not None and self.right is not None:
            ends = {end for _, end in self.left.matches(s)}
            return sorted(
                start for start, _ in self.right.matches(s) if start in ends
            )
        if self.left is not None:
            return sorted({end for _, end in self.left.matches(s)})
        return sorted({start for start, _ in self.right.matches(s)})

    def resolve(self, s: str) -> int:
        bs = self.boundaries(s)
        idx = self.occurrence - 1 if self.occurrence > 0 else len(bs) + self.occurrence
        if not 0 <= idx < len(bs):
            raise NoMatch(f"{serialize_position(self)} has no boundary #{self.occurrence}")
        return bs[idx]


PositionExpr = AbsPos | RegPos


@dataclass(frozen=True)
class ConstStr:
    s: str

    def __post_init__(self):
        if not self.s:
            raise ValueError("constant atoms must be non-empty")

    def eval(self, s: str) -> str:
        return self.s


@dataclass(frozen=True)
class SubStr:
    start: PositionExpr
    end: PositionExpr

    def eval(self, s: str) -> str:
        i = self.start.resolve(s)
        j = self.end.resolve(s)
        if i > j:
            raise EvalFailure(f"start {i} > end {j}")
        return s[i:j]


Atom = ConstStr | SubStr


@dataclass(frozen=True)
class Branch:
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("branch must have at least one atom")

    def eval(self, s: str) -> str:
        return "".join(a.eval(s) for a in self.atoms)


@dataclass(frozen=True)
class Predicate:
    kind: str  # startswith | endswith | contains
    tc: TokenClass
    occurrence: int = 1

    def __post_init__(self):
        if self.kind not in ("startswith", "endswith", "contains"):
            raise ValueError(f"unknown predicate kind {self.kind!r}")
        if self.occurrence < 1:
            raise ValueError("occurrence must be >= 1")

    def holds(self, s: str) -> bool:
        ms = self.tc.matches(s)
        if self.kind == "startswith":
            return any(start == 0 for start, _ in ms)
        if self.kind == "endswith":
            return any(end == len(s) for _, end in ms)
        return len(ms) >= self.occurrence


@dataclass(frozen=True)
class ExtractionProgram:
    """Predicate-guarded branches tried in order, then an optional default.

    A program with no cases is its default branch alone.
    """

    cases: tuple[tuple[Predicate, Branch], ...] = ()
    default: Optional[Branch] = None

    def __post_init__(self):
        if not self.cases and self.default is None:
            raise ValueError("program needs a case or a default branch")

    def eval(self, s: str) -> str:
        for pred, branch in self.cases:
            if pred.holds(s):
                return branch.eval(s)
        if self.default is not None:
            return self.default.eval(s)
        raise EvalFailure("no case matched and no default branch")

    @property
    def branches(self) -> tuple[Branch, ...]:
        bs = [b for _, b in self.cases]
        if self.default is not None:
            bs.append(self.default)
        return tuple(bs)


def eval_program(prog: ExtractionProgram, s: str) -> str:
    """Evaluate `prog` on `s`; raises EvalFailure, never anything else."""
    return prog.eval(s)


# ---------------------------------------------------------------------------
# Ranking


def _atom_score(a: Atom) -> int:
    # Constants generalize worst, absolute offsets second-worst.
    if isinstance(a, ConstStr):
        return 5
    return sum(isinstance(p, AbsPos) for p in (a.start, a.end))


def program_key(p: ExtractionProgram) -> tuple:
    """Ranking sort key; it ends in the serialization, so the order is total."""
    atoms = [a for b in p.branches for a in b.atoms]
    n_branches = len(p.branches)
    score = sum(_atom_score(a) for a in atoms)
    return (n_branches, score, len(atoms), serialize(p))


def atom_key(a: Atom) -> tuple:
    """Ranking sort key: orders atoms as `program_key` orders their one-atom programs."""
    return (_atom_score(a), _serialize_atom(a))


# ---------------------------------------------------------------------------
# Canonical serialization


def serialize_position(p: PositionExpr) -> str:
    if isinstance(p, AbsPos):
        return f"abs({p.k})"
    left = p.left.name if p.left else "eps"
    right = p.right.name if p.right else "eps"
    return f"pos({left},{right},{p.occurrence})"


def _serialize_atom(a: Atom) -> str:
    if isinstance(a, ConstStr):
        body = a.s.replace("\\", "\\\\").replace('"', '\\"')
        return f'const("{body}")'
    return f"sub({serialize_position(a.start)},{serialize_position(a.end)})"


def _serialize_branch(b: Branch) -> str:
    return "+".join(_serialize_atom(a) for a in b.atoms)


def _serialize_predicate(p: Predicate) -> str:
    if p.kind == "contains":
        return f"contains({p.tc.name},{p.occurrence})"
    return f"{p.kind}({p.tc.name})"


def serialize(prog: ExtractionProgram) -> str:
    """Canonical single-line form; equal programs serialize identically."""
    if not prog.cases:
        return _serialize_branch(prog.default)
    parts = [
        f"case({_serialize_predicate(pred)},{_serialize_branch(b)})"
        for pred, b in prog.cases
    ]
    if prog.default is not None:
        parts.append(f"default({_serialize_branch(prog.default)})")
    return f"switch({','.join(parts)})"


_WORD_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*|-?[0-9]+")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def error(self, msg: str) -> ParseError:
        return ParseError(msg, self.i)

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.i] if self.i < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.i >= len(self.text) or self.text[self.i] != ch:
            raise self.error(f"expected {ch!r}")
        self.i += 1

    def word(self) -> str:
        self.skip_ws()
        m = _WORD_RE.match(self.text, self.i)
        if not m:
            raise self.error("expected identifier or number")
        self.i = m.end()
        return m.group(0)

    def string(self) -> str:
        self.expect('"')
        out = []
        while True:
            if self.i >= len(self.text):
                raise self.error("unterminated string")
            ch = self.text[self.i]
            self.i += 1
            if ch == "\\":
                if self.i >= len(self.text):
                    raise self.error("dangling escape")
                out.append(self.text[self.i])
                self.i += 1
            elif ch == '"':
                return "".join(out)
            else:
                out.append(ch)

    def token_class(self, allow_eps: bool = False) -> Optional[TokenClass]:
        w = self.word()
        if allow_eps and w == "eps":
            return None
        if w not in CLASS_BY_NAME:
            raise self.error(f"unknown token class {w!r}")
        return CLASS_BY_NAME[w]

    def position(self) -> PositionExpr:
        w = self.word()
        if w == "abs":
            self.expect("(")
            k = int(self.word())
            self.expect(")")
            return AbsPos(k)
        if w == "pos":
            self.expect("(")
            left = self.token_class(allow_eps=True)
            self.expect(",")
            right = self.token_class(allow_eps=True)
            self.expect(",")
            occ = int(self.word())
            self.expect(")")
            return RegPos(left, right, occ)
        raise self.error(f"expected position, got {w!r}")

    def atom(self) -> Atom:
        w = self.word()
        if w == "const":
            self.expect("(")
            s = self.string()
            self.expect(")")
            return ConstStr(s)
        if w == "sub":
            self.expect("(")
            start = self.position()
            self.expect(",")
            end = self.position()
            self.expect(")")
            return SubStr(start, end)
        raise self.error(f"expected atom, got {w!r}")

    def branch(self) -> Branch:
        atoms = [self.atom()]
        while self.peek() == "+":
            self.expect("+")
            atoms.append(self.atom())
        return Branch(tuple(atoms))

    def predicate(self) -> Predicate:
        w = self.word()
        if w not in ("startswith", "endswith", "contains"):
            raise self.error(f"expected predicate, got {w!r}")
        self.expect("(")
        tc = self.token_class()
        occ = 1
        if w == "contains":
            self.expect(",")
            occ = int(self.word())
        self.expect(")")
        return Predicate(w, tc, occ)

    def program(self) -> ExtractionProgram:
        save = self.i
        try:
            w = self.word()
        except ParseError:
            w = ""
        if w == "switch":
            self.expect("(")
            cases: list[tuple[Predicate, Branch]] = []
            default: Optional[Branch] = None
            while True:
                kw = self.word()
                if kw == "case":
                    if default is not None:
                        raise self.error("cases after default")
                    self.expect("(")
                    pred = self.predicate()
                    self.expect(",")
                    br = self.branch()
                    self.expect(")")
                    cases.append((pred, br))
                elif kw == "default":
                    self.expect("(")
                    default = self.branch()
                    self.expect(")")
                else:
                    raise self.error(f"expected case/default, got {kw!r}")
                if self.peek() == ",":
                    self.expect(",")
                    continue
                break
            self.expect(")")
            if not cases:
                raise self.error("switch needs at least one case")
            return ExtractionProgram(tuple(cases), default)
        self.i = save
        return ExtractionProgram(default=self.branch())


def parse(text: str) -> ExtractionProgram:
    p = _Parser(text)
    prog = p.program()
    p.skip_ws()
    if p.i != len(p.text):
        raise p.error("trailing input after program")
    return prog
