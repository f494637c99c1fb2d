"""Programming-by-example synthesis of extraction programs.

Given input/output string pairs, enumerate bounded position expressions
that pin the output span in each input, intersect the candidates across
pairs, and fall back to predicate-guarded conditionals when no single
branch explains every pair.  Optional negative examples (output = None)
require the final program to fail on those inputs.

A switch is built one case at a time: each case takes the largest subset
of the still-uncovered pairs that has a branch and a guard predicate true
on exactly that subset (among the uncovered pairs) and on no negative.
Only a subset some candidate predicate picks out can be guarded, so the
search visits those subsets alone -- at most one per predicate, plus all
uncovered pairs when there are no negatives -- instead of all 2^n.  It
visits them largest first and, within a size, in index order, and takes
the first predicate in candidate order: the order and tie-breaks of a
largest-first `itertools.combinations` walk, so the programs are the same.

A branch's atom for an output span is chosen from per-example position
offsets, as FlashFill intersects start and end position sets: each
candidate start and end position of the span in the first input is
resolved once in every other input, and a start pairs with the ends that
resolve to its offset plus that example's span length.  Atoms are never
built one start x end pair at a time.

Candidate positions for an offset come from the input's boundary index
(`dsl.boundary_index`): the classes whose matches end or start there, and
each class's or class pair's increasing boundaries, are looked up rather
than rescanned, and the occurrence number is a binary search.  One call
memoizes them per (input, offset), as every subset it tries whose first
input is the same asks for the same offsets; the memo is dropped when the
call returns, so nothing is cached across calls.  Each position is
resolved in the other inputs lazily, through the non-raising `offset`,
stopping at the first input where it has none.

The guards' truth table is built once per call: one bitmask per candidate
predicate over the pairs and negatives, read from each string's boundary
index by `Predicate.holds`'s rules.  `Predicate.holds` stays the
definition; a property test checks the table against it.  A round's
subsets are each mask and'ed with the mask of the uncovered pairs.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Optional

from .config import json_lines, numbered_lines
from .dsl import (
    ALPHABET,
    AbsPos,
    Atom,
    Branch,
    ConstStr,
    EvalFailure,
    ExtractionProgram,
    Predicate,
    RegPos,
    SubStr,
    boundary_index,
    serialize_position,
)
from .extract import PREPROCESS_FLAGS


class SynthesisFailure(Exception):
    def __init__(self, message: str, unmet_pairs: list[tuple[str, str]]):
        super().__init__(message)
        self.unmet_pairs = unmet_pairs


@dataclass(frozen=True)
class Bounds:
    """Search limits; defaults are sized for desk-scale specs."""

    max_occurrence: int = 3
    abs_window: int = 4
    max_atoms: int = 3
    max_branches: int = 6

    def __post_init__(self):
        for name in ("max_occurrence", "max_atoms", "max_branches"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.abs_window < 0:
            raise ValueError("abs_window must be at least 0")


DEFAULT_BOUNDS = Bounds()


@dataclass
class ExampleSpec:
    """Input/output pairs for one constituent of one component type."""

    component: str
    constituent_name: str
    pairs: list[tuple[str, str]]
    negatives: list[str] = field(default_factory=list)
    repeats: bool = False
    preprocess: tuple[str, ...] = ()

    def validate(self) -> None:
        if not self.pairs:
            raise ValueError("spec needs at least one input/output pair")
        for inp, out in self.pairs:
            if not out:
                raise ValueError(f"empty output for input {inp!r}")


def load_spec(path: str, lexicon=None) -> ExampleSpec:
    """Read a line-delimited spec file: header record, then example records.

    Inputs of tag_clauses specs are tagged at load time, so synthesis sees
    the same text extraction will see.  Errors name `path:line`.
    """
    pairs: list[tuple[str, str]] = []
    negatives: list[str] = []
    with numbered_lines(path) as lines:
        records = (rec for _, rec in json_lines(lines))
        header = next(records, None)
        flags = () if header is None else _spec_flags(header)
        for rec in records:
            if not (
                isinstance(rec, dict)
                and isinstance(rec.get("input"), str)
                and isinstance(rec.get("output"), (str, type(None)))
                and rec.get("output") != ""
            ):
                raise ValueError(
                    "example needs a string input and a non-empty string or null output"
                )
            text = rec["input"]
            if "tag_clauses" in flags:
                from .clauses import Lexicon, tag_clauses

                text = tag_clauses(text, lexicon or Lexicon())
            if rec.get("output") is None:
                negatives.append(text)
            else:
                pairs.append((text, rec["output"]))
    if header is None:
        raise ValueError(f"{path}: empty spec file")
    if not pairs:
        raise ValueError(f"{path}: spec needs at least one input/output pair")
    return ExampleSpec(
        component=header["component"],
        constituent_name=header["constituent"],
        pairs=pairs,
        negatives=negatives,
        repeats=header.get("repeats", False),
        preprocess=flags,
    )


def _spec_flags(header) -> tuple[str, ...]:
    """The preprocess flags of a valid spec header record."""
    if not (
        isinstance(header, dict)
        and all(isinstance(header.get(k), str) for k in ("component", "constituent"))
        and isinstance(header.get("repeats", False), bool)
        and isinstance(header.get("preprocess", []), list)
    ):
        raise ValueError(
            "header needs string component and constituent, bool repeats, list preprocess"
        )
    flags = tuple(header.get("preprocess", ()))
    for flag in flags:
        if flag not in PREPROCESS_FLAGS:
            raise ValueError(f"unknown preprocess flag {flag!r}")
    return flags


# ---------------------------------------------------------------------------
# Candidate generation


def positions_resolving_to(s: str, i: int, bounds: Bounds = DEFAULT_BOUNDS) -> list:
    """All bounded position expressions that resolve to index i in s."""
    out: list = []
    if i <= bounds.abs_window:
        out.append(AbsPos(i))
    if len(s) - i <= bounds.abs_window:
        out.append(AbsPos(i - len(s) - 1))
    index = boundary_index(s)
    left_classes, right_classes = index.classes_at(i)

    def add(left: Optional[str], right: Optional[str]):
        bs = index.boundaries(left, right)
        idx = bisect_left(bs, i)
        if idx + 1 <= bounds.max_occurrence:
            out.append(RegPos(left, right, idx + 1))
        back = len(bs) - idx
        if back <= bounds.max_occurrence:
            out.append(RegPos(left, right, -back))

    for name in left_classes:
        add(name, None)
    for name in right_classes:
        add(None, name)
    for lt in left_classes:
        for rt in right_classes:
            add(lt, rt)
    return out


def _produces(expr: Atom | Branch | ExtractionProgram, inp: str, out: str) -> bool:
    try:
        return expr.eval(inp) == out
    except EvalFailure:
        return False


def _decompose(inp: str, out: str) -> list[tuple[str, str]]:
    """Greedy split of `out` into maximal input-substring spans and constants."""
    parts: list[tuple[str, str]] = []
    k = 0
    while k < len(out):
        best = 0
        for length in range(len(out) - k, 0, -1):
            if out[k : k + length] in inp:
                best = length
                break
        if best:
            parts.append(("sub", out[k : k + best]))
            k += best
        else:
            c = k
            while k < len(out) and out[k] not in inp:
                k += 1
            parts.append(("const", out[c:k]))
    return parts


def _align_parts(out: str, parts: list[tuple[str, str]]) -> Optional[list[str]]:
    """Split another pair's output into the sub-slot texts of `parts`."""
    slots: list[str] = []
    pos = 0
    for idx, (kind, text) in enumerate(parts):
        if kind == "const":
            at = out.find(text, pos)
            if at < 0:
                return None
            if idx > 0 and parts[idx - 1][0] == "sub":
                slots.append(out[pos:at])
            elif at != pos:
                return None
            pos = at + len(text)
        elif idx + 1 == len(parts):
            slots.append(out[pos:])
            pos = len(out)
    if parts and parts[-1][0] == "const" and pos != len(out):
        return None
    return slots


# `positions(s, i)`: the candidate positions of offset i in s, as
# `positions_resolving_to` lists them under the search's bounds.
Positions = Callable[[str, int], list]


def _slot_atom(
    first_in: str, others: list[tuple[str, str]], t0: str, positions: Positions
) -> Optional[SubStr]:
    """Top-ranked substring atom that yields t0 in first_in and, for each
    (s, t) of `others`, t in s; or None.

    For every occurrence of t0, each candidate position is resolved once per
    other input.  End positions are grouped by the offsets they resolve to;
    a start position that resolves to an offset i where t begins, in every
    other input, pairs with the end positions at i + len(t).  The rank is
    `program_key`'s for one-atom programs: the `abs` positions, then the
    serialization, which orders as (start text, end text) because no
    serialized position is a proper prefix of another.
    """
    best: Optional[tuple] = None
    start = first_in.find(t0)
    while start >= 0:
        ends: dict[tuple[int, ...], tuple] = {}
        for p2 in positions(first_in, start + len(t0)):
            offsets = []
            for s, _ in others:
                j = p2.offset(s)
                if j is None:
                    break
                offsets.append(j)
            else:
                rank = (isinstance(p2, AbsPos), serialize_position(p2))
                key = tuple(offsets)
                if key not in ends or rank < ends[key][0]:
                    ends[key] = (rank, p2)
        if ends:
            for p1 in positions(first_in, start):
                offsets = []
                for s, t in others:
                    i = p1.offset(s)
                    if i is None or not s.startswith(t, i):
                        break
                    offsets.append(i + len(t))
                else:
                    end = ends.get(tuple(offsets))
                    if end is not None:
                        (abs2, text2), p2 = end
                        rank = (isinstance(p1, AbsPos) + abs2, serialize_position(p1), text2)
                        if best is None or rank < best[0]:
                            best = (rank, SubStr(p1, p2))
        start = first_in.find(t0, start + 1)
    return None if best is None else best[1]


def _branch_for_pairs(
    pairs: list[tuple[str, str]], bounds: Bounds, positions: Positions
) -> Optional[Branch]:
    """Top-ranked branch reproducing every pair, or None.

    The first pair's output is split into input spans and constants; each
    span becomes the top-ranked atom that yields its aligned text in every
    pair.  A one-part split is the whole output, which is a constant when
    no substring atom yields it and every pair's output is the same.
    """
    first_in, first_out = pairs[0]
    parts = _decompose(first_in, first_out)
    if len(parts) > bounds.max_atoms:
        return None
    if all(kind == "const" for kind, _ in parts):
        return None
    sub_slots = [text for kind, text in parts if kind == "sub"]
    per_pair_slots = [sub_slots]
    for inp, out in pairs[1:]:
        slots = _align_parts(out, parts)
        if slots is None or len(slots) != len(sub_slots):
            return None
        per_pair_slots.append(slots)
    atoms: list[Atom] = []
    slot_idx = 0
    for kind, text in parts:
        if kind == "const":
            atoms.append(ConstStr(text))
            continue
        slot_texts = [slots[slot_idx] for slots in per_pair_slots]
        slot_idx += 1
        t0 = slot_texts[0]
        if any(not t for t in slot_texts) or t0 not in first_in:
            return None
        others = [(p[0], t) for p, t in zip(pairs[1:], slot_texts[1:])]
        atom: Optional[Atom] = _slot_atom(first_in, others, t0, positions)
        # A constant ranks after every substring atom.
        if atom is None and len(parts) == 1 and all(t == t0 for t in slot_texts):
            atom = ConstStr(t0)
        if atom is None:
            return None
        atoms.append(atom)
    branch = Branch(tuple(atoms))
    if all(_produces(branch, i, o) for i, o in pairs):
        return branch
    return None


# ---------------------------------------------------------------------------
# Conditionals


def _truth_table(strings: list[str], bounds: Bounds) -> list[tuple[tuple, int]]:
    """Each candidate predicate, in candidate order, as its `Predicate`
    arguments with the bitmask of the strings it holds on (bit i: strings[i]).

    The bits are read from each string's boundary index in one pass over the
    alphabet, by `Predicate.holds`'s rules: startswith(c) when c's first
    start is 0, endswith(c) when its last end is len(s), contains(c, k) when
    c has at least k starts.  contains(c, k) is listed only up to the most
    starts c has in one string, as above that it holds on none.
    """
    first = dict.fromkeys(ALPHABET, 0)
    last = dict.fromkeys(ALPHABET, 0)
    counts: dict[str, list[tuple[int, int]]] = {c: [] for c in ALPHABET}
    for i, s in enumerate(strings):
        index = boundary_index(s)
        bit = 1 << i
        for c in ALPHABET:
            starts = index.starts[c]
            if starts:
                if starts[0] == 0:
                    first[c] |= bit
                if index.ends[c][-1] == len(s):
                    last[c] |= bit
                counts[c].append((len(starts), bit))
    table = [(("startswith", c), first[c]) for c in ALPHABET]
    table += [(("endswith", c), last[c]) for c in ALPHABET]
    for c, seen in counts.items():
        top = min(bounds.max_occurrence, max((n for n, _ in seen), default=0))
        for k in range(1, top + 1):
            table.append((("contains", c, k), sum(bit for n, bit in seen if n >= k)))
    return table


def _members(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of mask, increasing."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _program_succeeds(prog: ExtractionProgram, s: str) -> bool:
    try:
        prog.eval(s)
        return True
    except EvalFailure:
        return False


def synthesize(
    spec: ExampleSpec, bounds: Bounds = DEFAULT_BOUNDS
) -> ExtractionProgram:
    """Synthesize the top-ranked program reproducing every spec pair.

    Raises SynthesisFailure naming the pairs that could not be covered.
    """
    spec.validate()
    pairs = list(spec.pairs)
    negatives = list(spec.negatives)
    # Candidate positions per (input, offset), shared by every subset this
    # call tries; nothing outlives the call.
    positions = cache(lambda s, i: positions_resolving_to(s, i, bounds))

    single = _branch_for_pairs(pairs, bounds, positions)
    if single is not None:
        prog = ExtractionProgram(default=single)
        if not any(_program_succeeds(prog, n) for n in negatives):
            _verify(prog, pairs, negatives)
            return prog

    # Subsets of pairs are bitmasks: bit i stands for pairs[i].  The single
    # attempt already tried the subset of all pairs.
    everyone = (1 << len(pairs)) - 1
    branch_cache: dict[int, Optional[Branch]] = {everyone: single}

    def branch_for(subset: int) -> Optional[Branch]:
        if subset not in branch_cache:
            branch_cache[subset] = _branch_for_pairs(
                [pairs[i] for i in _members(subset)], bounds, positions
            )
        return branch_cache[subset]

    # The candidate predicates that hold on some pair and on no negative;
    # negatives hold the bits above the pairs'.
    table = [
        (args, mask)
        for args, mask in _truth_table([inp for inp, _ in pairs] + negatives, bounds)
        if mask & everyone and not mask >> len(pairs)
    ]

    left = everyone
    partitions: list[tuple[Optional[Predicate], Branch]] = []
    while left:
        if len(partitions) >= bounds.max_branches:
            raise SynthesisFailure(
                f"more than {bounds.max_branches} branches required",
                [pairs[i] for i in _members(left)],
            )
        # A case needs a predicate true on exactly its pairs among the
        # remaining ones and on no negative, so the only subsets that can be
        # accepted are those a predicate picks out, guarded by the first
        # predicate in candidate order that picks them out.  With no
        # negatives, all remaining pairs need no guard.
        guards: dict[int, Optional[tuple]] = {}
        if not negatives:
            guards[left] = None
        for args, mask in table:
            subset = mask & left
            if subset:
                guards.setdefault(subset, args)
        # Largest subset first, same-size subsets in index order: the order
        # combinations(remaining, size) emits them, so ties go to the
        # earliest example.
        for subset in sorted(guards, key=lambda sub: (-sub.bit_count(), _members(sub))):
            branch = branch_for(subset)
            if branch is not None:
                break
        else:
            raise SynthesisFailure(
                "no branch/predicate covers the remaining examples",
                [pairs[i] for i in _members(left)],
            )
        args = guards[subset]
        partitions.append((None if args is None else Predicate(*args), branch))
        left &= ~subset

    # Only the last partition can be unguarded: it takes every remaining pair.
    if partitions[-1][0] is None:
        prog = ExtractionProgram(tuple(partitions[:-1]), partitions[-1][1])
    else:
        prog = ExtractionProgram(tuple(partitions))
    _verify(prog, pairs, negatives)
    return prog


def _verify(
    prog: ExtractionProgram, pairs: list[tuple[str, str]], negatives: list[str]
) -> None:
    bad = [(inp, out) for inp, out in pairs if not _produces(prog, inp, out)]
    bad += [(neg, "<must fail>") for neg in negatives if _program_succeeds(prog, neg)]
    if bad:
        raise SynthesisFailure(
            f"synthesized program does not reproduce {len(bad)} example(s)", bad
        )
