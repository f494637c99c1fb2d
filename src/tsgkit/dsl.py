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
from json.decoder import JSONDecodeError, scanstring
from json.encoder import encode_basestring
from typing import Optional


class EvalFailure(Exception):
    """A program could not produce a value for the given input; the message says why."""


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


# Ordered alphabet: token-class name -> pattern.  Programs hold the name;
# only `BoundaryIndex` reads the pattern.  ClauseTag is appended last so it does not
# perturb the relative order of the core classes; it exists so programs can
# anchor on the <CL1>/<CL2> markers emitted by the clause tagger.
ALPHABET: dict[str, re.Pattern] = {
    name: re.compile(pattern)
    for name, pattern in (
        ("Alphanumeric", r"[A-Za-z0-9]+"),
        ("Alpha", r"[A-Za-z]+"),
        ("Digits", r"[0-9]+"),
        ("Whitespace", r"\s+"),
        ("Dollar", r"\$"),
        ("Dash", r"-"),
        ("Dot", r"\."),
        ("Slash", r"/"),
        ("Pipe", r"\|"),
        ("Quote", r"[\"']"),
        ("OpenBrace", r"\{"),
        ("CloseBrace", r"\}"),
        ("Comma", r","),
        ("Equals", r"="),
        ("DollarWord", r"\$[A-Za-z0-9]+"),
        ("DashWord", r"-[A-Za-z0-9]+"),
        ("DottedName", r"[A-Za-z0-9_.\-]+"),
        ("StartAnchor", r"^"),
        ("EndAnchor", r"\Z"),
        ("ClauseTag", r"</?CL[0-9]+>"),
    )
}

# Distinct strings whose index is kept, and the longest string kept.  A
# pass of the benchmark's 204 guides evaluates about 400 distinct strings of
# at most 98 characters.  With the offset maps synthesis asks for, the index
# of 128 characters took at most 34 KiB (tracemalloc) on random text dense
# in class boundaries, so a full cache stays near 64 MiB.  A longer string
# is indexed again on each use (about 0.15 ms at 300 characters).
INDEX_CACHE_SIZE = 2048
INDEX_CACHE_MAX_LEN = 128


class BoundaryIndex:
    """Where the matches of every token class start and end in one string.

    Matches are leftmost, non-overlapping, and longest for these patterns
    (all greedy).  `starts[name]` and `ends[name]` are the offsets where
    matches of that class start and end, increasing.  Offsets and classes
    are handed out as tuples, so no caller can change a cached index.
    """

    __slots__ = ("starts", "ends", "_pairs", "_ending_at", "_starting_at")

    def __init__(self, s: str):
        self.starts: dict[str, tuple[int, ...]] = {}
        self.ends: dict[str, tuple[int, ...]] = {}
        for name, pattern in ALPHABET.items():
            spans = [m.span() for m in pattern.finditer(s)]
            self.starts[name] = tuple(sorted({b for b, _ in spans}))
            self.ends[name] = tuple(sorted({e for _, e in spans}))
        self._pairs: dict[tuple[str, str], tuple[int, ...]] = {}
        self._ending_at: Optional[dict[int, tuple[str, ...]]] = None
        self._starting_at: Optional[dict[int, tuple[str, ...]]] = None

    def classes_at(self, i: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The classes, in alphabet order, with a match ending at offset i,
        and those with a match starting there.  The maps are built on first
        use: only synthesis asks, and evaluation need not pay for them."""
        if self._ending_at is None:
            self._ending_at = _classes_by_offset(self.ends)
            self._starting_at = _classes_by_offset(self.starts)
        return self._ending_at.get(i, ()), self._starting_at.get(i, ())

    def boundaries(self, left: Optional[str], right: Optional[str]) -> tuple[int, ...]:
        """Offsets, increasing, where a `left` match ends and a `right` match
        starts; None drops that side.  Two-sided results are memoized."""
        if left is None:
            return self.starts[right]
        if right is None:
            return self.ends[left]
        key = (left, right)
        bs = self._pairs.get(key)
        if bs is None:
            ends = set(self.ends[left])
            bs = self._pairs[key] = tuple(i for i in self.starts[right] if i in ends)
        return bs


def _classes_by_offset(offsets: dict[str, tuple[int, ...]]) -> dict[int, tuple[str, ...]]:
    by_offset: dict[int, list[str]] = {}
    for name in ALPHABET:
        for i in offsets[name]:
            by_offset.setdefault(i, []).append(name)
    return {i: tuple(names) for i, names in by_offset.items()}


_cached_index = lru_cache(maxsize=INDEX_CACHE_SIZE)(BoundaryIndex)


def boundary_index(s: str) -> BoundaryIndex:
    """The boundary index of s, built once per string while it stays cached;
    a string longer than `INDEX_CACHE_MAX_LEN` is indexed on every call."""
    return BoundaryIndex(s) if len(s) > INDEX_CACHE_MAX_LEN else _cached_index(s)


boundary_index.cache_clear = _cached_index.cache_clear
boundary_index.cache_info = _cached_index.cache_info


@dataclass(frozen=True)
class AbsPos:
    """Absolute offset; negative counts back from the end (-1 = len(s))."""

    k: int

    def offset(self, s: str) -> Optional[int]:
        """The offset this position picks in s, or None where it has none."""
        i = self.k if self.k >= 0 else len(s) + self.k + 1
        return i if 0 <= i <= len(s) else None

    def resolve(self, s: str) -> int:
        i = self.offset(s)
        if i is None:
            raise EvalFailure(f"abs({self.k}) outside [0, {len(s)}]")
        return i


@dataclass(frozen=True)
class RegPos:
    """Boundary where a `left` match ends and/or a `right` match starts.

    `left` and `right` name `ALPHABET` classes; None (`eps`) drops that
    side.  Boundaries are counted left-to-right for occurrence > 0 and
    right-to-left for occurrence < 0.
    """

    left: Optional[str]
    right: Optional[str]
    occurrence: int

    def __post_init__(self):
        if self.left is None and self.right is None:
            raise ValueError("RegPos needs at least one token class")
        if self.occurrence == 0:
            raise ValueError("occurrence must be nonzero")

    def offset(self, s: str) -> Optional[int]:
        """The offset this position picks in s, or None where it has none."""
        bs = boundary_index(s).boundaries(self.left, self.right)
        idx = self.occurrence - 1 if self.occurrence > 0 else len(bs) + self.occurrence
        return bs[idx] if 0 <= idx < len(bs) else None

    def resolve(self, s: str) -> int:
        i = self.offset(s)
        if i is None:
            raise EvalFailure(f"{serialize_position(self)} has no boundary #{self.occurrence}")
        return i


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
    tc: str  # an ALPHABET class name
    occurrence: int = 1

    def __post_init__(self):
        if self.kind not in ("startswith", "endswith", "contains"):
            raise ValueError(f"unknown predicate kind {self.kind!r}")
        if self.occurrence < 1:
            raise ValueError("occurrence must be >= 1")

    def holds(self, s: str) -> bool:
        index = boundary_index(s)
        # Offsets are increasing: only the first start can be 0, and only
        # the last end can be len(s).
        if self.kind == "startswith":
            return 0 in index.starts[self.tc][:1]
        if self.kind == "endswith":
            return len(s) in index.ends[self.tc][-1:]
        return len(index.starts[self.tc]) >= self.occurrence


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


# Kept because perfbench/tracing.py wraps `extract.eval_program`, the name extraction calls.
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


# ---------------------------------------------------------------------------
# Canonical serialization


def serialize_position(p: PositionExpr) -> str:
    if isinstance(p, AbsPos):
        return f"abs({p.k})"
    return f"pos({p.left or 'eps'},{p.right or 'eps'},{p.occurrence})"


def _serialize_atom(a: Atom) -> str:
    if isinstance(a, ConstStr):
        # A JSON string literal, as json.dumps(a.s, ensure_ascii=False)
        # writes it: "\n" and "\r" are escaped, so a registry line never splits.
        return f"const({encode_basestring(a.s)})"
    return f"sub({serialize_position(a.start)},{serialize_position(a.end)})"


def _serialize_branch(b: Branch) -> str:
    return "+".join(_serialize_atom(a) for a in b.atoms)


def _serialize_predicate(p: Predicate) -> str:
    if p.kind == "contains":
        return f"contains({p.tc},{p.occurrence})"
    return f"{p.kind}({p.tc})"


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
_INT_RE = re.compile(r"-?[0-9]+")


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

    def integer(self) -> int:
        self.skip_ws()
        m = _INT_RE.match(self.text, self.i)
        if not m:
            raise self.error("expected integer")
        self.i = m.end()
        return int(m.group(0))

    def string(self) -> str:
        """A JSON string literal."""
        self.expect('"')
        try:
            s, self.i = scanstring(self.text, self.i, False)
        except JSONDecodeError as exc:
            if exc.msg.startswith("Unterminated"):
                self.i = len(self.text)
                raise self.error("unterminated string") from None
            self.i = exc.pos
            raise self.error("invalid escape") from None
        return s

    def token_class(self, allow_eps: bool = False) -> Optional[str]:
        w = self.word()
        if allow_eps and w == "eps":
            return None
        if w not in ALPHABET:
            raise self.error(f"unknown token class {w!r}")
        return w

    def position(self) -> PositionExpr:
        w = self.word()
        if w == "abs":
            self.expect("(")
            k = self.integer()
            self.expect(")")
            return AbsPos(k)
        if w == "pos":
            self.expect("(")
            left = self.token_class(allow_eps=True)
            self.expect(",")
            right = self.token_class(allow_eps=True)
            self.expect(",")
            occ = self.integer()
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
            occ = self.integer()
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
    try:
        prog = p.program()
    except ParseError:
        raise
    except ValueError as exc:
        # A node rejected its fields: an empty constant, occurrence 0, ...
        raise p.error(str(exc)) from None
    p.skip_ws()
    if p.i != len(p.text):
        raise p.error("trailing input after program")
    return prog
