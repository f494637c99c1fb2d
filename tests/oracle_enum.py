"""Independent exhaustive enumerator used as the synthesis test oracle.

Enumerates the *entire* bounded position space up front (rather than
deriving positions from output spans like the synthesizer does), filters
single-atom programs by evaluation on every pair, and applies the same
ranking.  Written against the DSL only; no synthesizer internals.
"""

from __future__ import annotations

from itertools import product

from tsgkit.dsl import (
    ALPHABET,
    AbsPos,
    Branch,
    ConstStr,
    EvalFailure,
    ExtractionProgram,
    RegPos,
    SubStr,
    program_key,
)
from tsgkit.synthesis import Bounds, DEFAULT_BOUNDS


def enumerate_positions(bounds: Bounds = DEFAULT_BOUNDS):
    positions = []
    for k in range(0, bounds.abs_window + 1):
        positions.append(AbsPos(k))
    for k in range(1, bounds.abs_window + 2):
        positions.append(AbsPos(-k))
    sides = [None] + list(ALPHABET)
    occs = [o for o in range(1, bounds.max_occurrence + 1)]
    occs += [-o for o in range(1, bounds.max_occurrence + 1)]
    for left, right in product(sides, sides):
        if left is None and right is None:
            continue
        for occ in occs:
            positions.append(RegPos(left, right, occ))
    return positions


def _resolved_vector(pos, inputs):
    out = []
    for s in inputs:
        try:
            out.append(pos.resolve(s))
        except EvalFailure:
            return None
    return tuple(out)


def consistent_single_atoms(pairs, bounds: Bounds = DEFAULT_BOUNDS):
    """Every bounded single atom whose evaluation matches all pairs."""
    inputs = [inp for inp, _ in pairs]
    outputs = [out for _, out in pairs]
    atoms = []
    if len(set(outputs)) == 1 and outputs[0]:
        atoms.append(ConstStr(outputs[0]))
    groups: dict[tuple, list] = {}
    for pos in enumerate_positions(bounds):
        vec = _resolved_vector(pos, inputs)
        if vec is not None:
            groups.setdefault(vec, []).append(pos)
    for vstart, starts in groups.items():
        for vend, ends in groups.items():
            ok = all(
                i <= j and s[i:j] == out
                for s, out, i, j in zip(inputs, outputs, vstart, vend)
            )
            if not ok:
                continue
            for p1 in starts:
                for p2 in ends:
                    atoms.append(SubStr(p1, p2))
    return atoms


def oracle_best_single(pairs, bounds: Bounds = DEFAULT_BOUNDS):
    """Rank-minimal single-atom program consistent with the pairs, or None."""
    atoms = consistent_single_atoms(pairs, bounds)
    if not atoms:
        return None
    return min((ExtractionProgram(default=Branch((a,))) for a in atoms), key=program_key)
