import collections
import re
import time
from functools import cache
from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_enum import consistent_single_atoms, oracle_best_single
from tsgkit import synthesis
from tsgkit.corpusgen import generate_corpus
from tsgkit.dsl import (
    ALPHABET,
    AbsPos,
    Branch,
    ConstStr,
    EvalFailure,
    ExtractionProgram,
    Predicate,
    RegPos,
    eval_program,
    program_key,
    serialize,
    serialize_position,
)
from tsgkit.synthesis import (
    DEFAULT_BOUNDS,
    Bounds,
    ExampleSpec,
    SynthesisFailure,
    generate_atoms,
    positions_resolving_to,
    synthesize,
)


def spec_of(pairs, negatives=(), component="t", name="c"):
    return ExampleSpec(component, name, list(pairs), list(negatives))


def learn_branch(pairs, bounds=DEFAULT_BOUNDS):
    """`_branch_for_pairs` with candidate positions computed afresh."""
    return synthesis._branch_for_pairs(
        list(pairs), bounds, lambda s, i: positions_resolving_to(s, i, bounds)
    )


# --- atom generation ---------------------------------------------------------


def test_generate_atoms_requires_occurrence():
    with pytest.raises(ValueError, match="output 'zzz' does not occur in input 'abc'"):
        generate_atoms("abc", "zzz")


def test_atoms_include_identity_for_whole_input():
    from tsgkit.dsl import SubStr

    atoms = generate_atoms("hello", "hello")
    assert any(isinstance(a, SubStr) and a.eval("hello") == "hello" for a in atoms)


def test_every_generated_atom_reproduces_its_example():
    inp = "$mb = Get-Mailbox x"
    for atom in generate_atoms(inp, "$mb"):
        assert atom.eval(inp) == "$mb"


def test_generated_atoms_match_brute_force_enumeration():
    # The oracle enumerates the whole bounded position space independently;
    # on a single example both approaches must find the same atom set.
    pairs = [("user=alice id=7", "alice")]
    generated = {a for a in generate_atoms(*pairs[0])}
    brute = set(consistent_single_atoms(pairs))
    assert generated == brute


def test_generated_atoms_match_brute_force_on_dollar_example():
    pairs = [("$mb = Get-Mailbox", "$mb")]
    assert set(generate_atoms(*pairs[0])) == set(consistent_single_atoms(pairs))


# --- single-branch synthesis -------------------------------------------------


def test_assignment_variable_branch():
    spec = spec_of(
        [
            ("$mb = Get-Mailbox senderOrRecipientMailbox", "$mb"),
            ('$tenant = "<your tenant id/name>"', "$tenant"),
            ("EOP: $rulePackage = Get-DlpSensitiveInformation -Org x", "$rulePackage"),
        ]
    )
    prog = synthesize(spec)
    assert not prog.cases
    for inp, out in spec.pairs:
        assert prog.eval(inp) == out


def test_identity_branch_for_single_pair():
    prog = synthesize(spec_of([("abc def", "abc def")]))
    assert not prog.cases
    assert prog.eval("abc def") == "abc def"


def test_contradictory_spec_has_no_branch():
    # No branch covers both pairs, and no predicate can tell equal inputs apart.
    spec = spec_of([("same input", "same"), ("same input", "input")])
    with pytest.raises(SynthesisFailure) as err:
        synthesize(spec)
    assert err.value.unmet_pairs == spec.pairs


def test_multi_atom_concatenation():
    # Output stitches two input spans with a constant the input lacks.
    spec = spec_of([("alice 7", "alice#7"), ("bob 22", "bob#22")])
    prog = synthesize(spec)
    assert eval_program(prog, "carol 9") == "carol#9"


# --- full synthesis ----------------------------------------------------------


def test_two_format_spec_yields_two_branch_switch(bundled_specs):
    spec = bundled_specs["kusto_table_pair"]
    prog = synthesize(spec)
    assert prog.cases
    assert len(prog.branches) == 2
    for inp, out in spec.pairs:
        assert eval_program(prog, inp) == out


def test_three_format_spec_covers_all(bundled_specs):
    spec = bundled_specs["kusto_table"]
    prog = synthesize(spec)
    assert prog.cases
    for inp, out in spec.pairs:
        assert eval_program(prog, inp) == out


def test_kusto_table_program_serialization_golden(bundled_specs):
    from conftest import read_golden

    prog = synthesize(bundled_specs["kusto_table"])
    assert serialize(prog) + "\n" == read_golden("kusto_table_program.txt")


def test_unrelated_outputs_fail():
    spec = spec_of([("abc", "zq"), ("def", "xw")])
    with pytest.raises(SynthesisFailure) as err:
        synthesize(spec)
    assert err.value.unmet_pairs


def test_failure_names_unmet_pairs():
    spec = spec_of([("same input", "same"), ("same input", "input")])
    with pytest.raises(SynthesisFailure) as err:
        synthesize(spec)
    assert ("same input", "same") in err.value.unmet_pairs or (
        "same input",
        "input",
    ) in err.value.unmet_pairs


def test_negative_examples_guard_the_program():
    spec = spec_of(
        [("k=1", "1"), ("k=2", "2")],
        negatives=["no digits here"],
    )
    prog = synthesize(spec)
    assert eval_program(prog, "k=9") == "9"
    with pytest.raises(EvalFailure):
        eval_program(prog, "no digits here")


# --- properties --------------------------------------------------------------


def test_determinism_same_spec_same_program(bundled_specs):
    spec = bundled_specs["powershell_param_name"]
    assert serialize(synthesize(spec)) == serialize(synthesize(spec))


def test_stability_adding_satisfied_pair(bundled_specs):
    spec = bundled_specs["adf_subscription"]
    prog = synthesize(spec)
    extra_in = "https://adf.azure.com/subsc/SUB9/resourceGroups/rgZ"
    extra_out = eval_program(prog, extra_in)
    assert extra_out == "SUB9"
    widened = spec_of(list(spec.pairs) + [(extra_in, extra_out)])
    widened_prog = synthesize(widened)
    for inp, out in spec.pairs:
        assert eval_program(widened_prog, inp) == out


def test_soundness_on_every_bundled_spec(bundled_specs):
    for name, spec in bundled_specs.items():
        prog = synthesize(spec)
        for inp, out in spec.pairs:
            assert eval_program(prog, inp) == out, name
        for neg in spec.negatives:
            with pytest.raises(EvalFailure):
                eval_program(prog, neg)


def test_oracle_agreement_on_short_specs(bundled_specs):
    checked = 0
    for name, spec in bundled_specs.items():
        if spec.negatives or any(len(inp) > 40 for inp, _ in spec.pairs):
            continue
        expected = oracle_best_single(spec.pairs)
        if expected is None:
            continue
        assert serialize(synthesize(spec)) == serialize(expected), name
        checked += 1
    assert checked >= 2


def test_rank_prefers_single_over_switch(bundled_specs):
    single = synthesize(bundled_specs["demo_user_field"])
    switch = synthesize(bundled_specs["kusto_table_pair"])
    assert program_key(single) < program_key(switch)


def test_branch_budget_enforced(bundled_specs):
    # This spec needs two branches; a one-branch budget must fail cleanly.
    spec = bundled_specs["kusto_table_pair"]
    with pytest.raises(SynthesisFailure):
        synthesize(spec, Bounds(max_branches=1))


@pytest.mark.parametrize(
    "bad", [{"max_occurrence": 0}, {"abs_window": -1}, {"max_atoms": 0}, {"max_branches": 0}]
)
def test_out_of_range_bounds_rejected(bad):
    with pytest.raises(ValueError):
        Bounds(**bad)
    Bounds(max_occurrence=1, abs_window=0, max_atoms=1, max_branches=1)


# --- branch search: equivalence with the two-step search ----------------------


def reference_single_atom(pairs, bounds):
    """The top-ranked single atom reproducing every pair, constants included."""
    first_in, first_out = pairs[0]
    if first_out not in first_in:
        return None
    survivors = [
        a
        for a in generate_atoms(first_in, first_out, bounds)
        if all(synthesis._produces(a, i, o) for i, o in pairs[1:])
    ]
    if not survivors:
        return None
    return min(
        (Branch((a,)) for a in survivors),
        key=lambda b: program_key(ExtractionProgram(default=b)),
    )


def reference_multi_atom(pairs, bounds):
    """Spans and constants of the first output, with no constant per span."""
    first_in, first_out = pairs[0]
    parts = synthesis._decompose(first_in, first_out)
    if len(parts) > bounds.max_atoms or all(kind == "const" for kind, _ in parts):
        return None
    sub_slots = [text for kind, text in parts if kind == "sub"]
    per_pair_slots = [sub_slots]
    for _, out in pairs[1:]:
        slots = synthesis._align_parts(out, parts)
        if slots is None or len(slots) != len(sub_slots):
            return None
        per_pair_slots.append(slots)
    atoms = []
    slot_idx = 0
    for kind, text in parts:
        if kind == "const":
            atoms.append(ConstStr(text))
            continue
        slot_texts = [slots[slot_idx] for slots in per_pair_slots]
        slot_idx += 1
        if any(not t for t in slot_texts) or slot_texts[0] not in first_in:
            return None
        cands = [
            a
            for a in generate_atoms(first_in, slot_texts[0], bounds)
            if not isinstance(a, ConstStr)
            and all(synthesis._produces(a, p[0], t) for p, t in zip(pairs[1:], slot_texts[1:]))
        ]
        if not cands:
            return None
        best = min(
            (Branch((a,)) for a in cands),
            key=lambda b: program_key(ExtractionProgram(default=b)),
        )
        atoms.append(best.atoms[0])
    branch = Branch(tuple(atoms))
    if all(synthesis._produces(branch, i, o) for i, o in pairs):
        return branch
    return None


def reference_branch(pairs, bounds=DEFAULT_BOUNDS):
    single = reference_single_atom(pairs, bounds)
    return single if single is not None else reference_multi_atom(pairs, bounds)


def branch_text(branch):
    return None if branch is None else serialize(ExtractionProgram(default=branch))


def test_branch_search_matches_two_step_reference(bundled_specs):
    # The bundled and Kusto outputs are all input substrings; this spec
    # adds outputs that need a constant between two spans.
    specs = list(bundled_specs.values())
    specs.append(spec_of([("alice 7", "alice#7"), ("bob 22", "bob#22"), ("x y", "y#x")]))
    for seed in (3, 11):
        rows = kusto_rows(seed)
        specs += [three_format_spec(rows, n) for n in range(3, 10)]
    shapes = collections.Counter()
    for spec in specs:
        for size in (1, 2, 3):
            for subset in islice(combinations(spec.pairs, size), 300):
                got = branch_text(learn_branch(subset))
                assert got == branch_text(reference_branch(list(subset))), subset
                if got is None:
                    shapes["none"] += 1
                elif "+" in got:
                    shapes["multi"] += 1
                else:
                    shapes["const" if got.startswith("const(") else "sub"] += 1
    # Every outcome occurs, a whole-output constant among them.
    assert min(shapes[k] for k in ("none", "multi", "const", "sub")) >= 1, shapes


# Output shapes over a slot text t: the whole output, and spans joined by a
# constant the inputs never hold.
SLOT_FORMATS = ("{t}", "{t}#", "#{t}", "{t}#{t}")


@st.composite
def repeated_slot_pairs(draw):
    """1-4 pairs whose slot text occurs two or more times in each input."""
    fmt = draw(st.sampled_from(SLOT_FORMATS))
    shared = draw(st.text("ab1", min_size=1, max_size=3))
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        # Mostly the shared text, so that equal outputs reach the constant.
        t = shared if draw(st.integers(0, 3)) else draw(st.text("ab1", min_size=1, max_size=3))
        fillers = draw(st.lists(st.text("ab1 .-", max_size=8), min_size=3, max_size=4))
        pairs.append((t.join(fillers), fmt.format(t=t)))
    return pairs


@settings(max_examples=300, deadline=None)
@given(repeated_slot_pairs())
def test_branch_search_matches_reference_on_repeated_slot_texts(pairs):
    assert branch_text(learn_branch(pairs)) == branch_text(reference_branch(pairs))


@given(st.text("ab1 .-$|", max_size=14))
def test_serialized_positions_are_prefix_free(s):
    # Ranking compares a start and an end position's texts in place of the
    # text of the atom holding both; that needs no proper prefixes.
    bounds = Bounds(max_occurrence=12, abs_window=12)
    texts = {
        serialize_position(p) for i in range(len(s) + 1) for p in positions_resolving_to(s, i, bounds)
    }
    for a in texts:
        for b in texts:
            assert a == b or not b.startswith(a), (a, b)


def test_slot_search_resolves_each_position_once_per_example(monkeypatch):
    # A product loop over start x end positions resolves each start many
    # times; the bound allows one resolution per position and other example.
    # Formats are grouped, so that atoms survive the first few examples.
    pairs = sorted(
        three_format_spec(kusto_rows(5), 10).pairs,
        key=lambda pair: [bool(f.match(pair[0])) for f in KUSTO_FORMATS],
        reverse=True,
    )
    first_in, first_out = pairs[0]
    allowed = 0
    start = first_in.find(first_out)
    while start >= 0:
        allowed += len(positions_resolving_to(first_in, start))
        allowed += len(positions_resolving_to(first_in, start + len(first_out)))
        start = first_in.find(first_out, start + 1)
    allowed *= len(pairs) - 1

    calls = collections.Counter()
    for cls in (AbsPos, RegPos):
        offset = cls.offset

        def counting(self, s, offset=offset):
            calls["offset"] += 1
            return offset(self, s)

        monkeypatch.setattr(cls, "offset", counting)
    # Three formats have no common branch, so no branch is verified.
    assert learn_branch(pairs) is None
    assert 0 < calls["offset"] <= allowed


# --- switch search: equivalence with the exhaustive subset walk ---------------


def predicate_candidates(bounds):
    """Every candidate guard, in the order synthesis prefers them."""
    for kind in ("startswith", "endswith"):
        for name in ALPHABET:
            yield Predicate(kind, name)
    for name in ALPHABET:
        for occ in range(1, bounds.max_occurrence + 1):
            yield Predicate("contains", name, occ)


def _find_predicate(true_on, false_on, bounds):
    for pred in predicate_candidates(bounds):
        if all(pred.holds(s) for s in true_on) and not any(pred.holds(s) for s in false_on):
            return pred
    return None


def exhaustive_synthesize(spec, bounds=DEFAULT_BOUNDS):
    """Reference search: each case tries every subset of the uncovered pairs,
    largest first and in `combinations` order, and takes the first one with a
    branch and a predicate separating it from the other pairs and negatives."""
    pairs, negatives = list(spec.pairs), list(spec.negatives)
    branch_for = cache(lambda subset: learn_branch([pairs[i] for i in subset], bounds))
    single = branch_for(tuple(range(len(pairs))))
    if single is not None and not any(
        synthesis._program_succeeds(ExtractionProgram(default=single), n) for n in negatives
    ):
        return ExtractionProgram(default=single)
    remaining = list(range(len(pairs)))
    cases = []
    while remaining:
        if len(cases) >= bounds.max_branches:
            raise SynthesisFailure("too many branches", [pairs[i] for i in remaining])
        found = None
        for size in range(len(remaining), 0, -1):
            for subset in combinations(remaining, size):
                branch = branch_for(subset)
                if branch is None:
                    continue
                rest = [i for i in remaining if i not in subset]
                pred = None
                if rest or negatives:
                    pred = _find_predicate(
                        [pairs[i][0] for i in subset],
                        [pairs[i][0] for i in rest] + negatives,
                        bounds,
                    )
                    if pred is None:
                        continue
                found = subset, branch, pred
                break
            if found:
                break
        if found is None:
            raise SynthesisFailure("uncovered", [pairs[i] for i in remaining])
        subset, branch, pred = found
        cases.append((pred, branch))
        remaining = [i for i in remaining if i not in subset]
    if cases[-1][0] is None:
        if len(cases) == 1:
            return ExtractionProgram(default=cases[0][1])
        return ExtractionProgram(tuple(cases[:-1]), default=cases[-1][1])
    return ExtractionProgram(tuple(cases), default=None)


def outcome(synth, spec):
    try:
        return serialize(synth(spec))
    except SynthesisFailure as err:
        return ("failure", err.unmet_pairs)


# Three Kusto statement shapes from corpusgen; the output is the table name.
KUSTO_FORMATS = (
    re.compile(r'^(\w+) \| where \w+ == "\w+" \| count$'),
    re.compile(r"^cluster\('\w+'\)\.database\('\w+'\)\.(\w+) \| sort by \w+ desc$"),
    re.compile(r"^let \w+ = (\w+) \| where \w+ > \d+$"),
)


def kusto_rows(seed):
    """Per format, seeded (statement, table) pairs in a seeded order."""
    rows = [[] for _ in KUSTO_FORMATS]
    for text, label in generate_corpus(seed, 400):
        for fmt, pattern in zip(rows, KUSTO_FORMATS):
            m = pattern.match(text) if label == "kusto" else None
            if m:
                fmt.append((text, m.group(1)))
    rng = np.random.default_rng(seed)
    for fmt in rows:
        rng.shuffle(fmt)
    return rows


def three_format_spec(rows, n):
    """n pairs taking the three formats in round-robin order."""
    return spec_of([rows[(i + n) % 3].pop() for i in range(n)], name=f"table_n{n}")


HAND_SPECS_WITH_NEGATIVES = {
    "single_guarded_by_failure": ([("k=1", "1"), ("k=2", "2")], ["no digits here"]),
    "all_pairs_need_a_guard": ([("id=42", "42"), ("id=7", "7")], ["name=bob"]),
    "two_guarded_cases": (
        [("T1 | count", "T1"), ("T2 | count", "T2"), ("let r = T3 | where a > 1", "T3")],
        ["just some words"],
    ),
    "negative_equals_an_input": ([("a=1", "1")], ["a=1"]),
    "two_negatives": (
        [("x: 5 ms", "5"), ("latency 300 ms", "300"), ("Retry 2", "2")],
        ["no number", "ms ms"],
    ),
    # The first round has two two-pair cases, {0, 3} and {1, 2}: index
    # order takes {0, 3} first, though its bitmask is the larger.
    "equal_size_cases_in_index_order": (
        [
            ("T1 | count", "T1"),
            ("let r = T3 | where a > 1", "T3"),
            ("let q = Tab | where b > 2", "Tab"),
            ("Tx2 | count", "Tx2"),
        ],
        ["123"],
    ),
}


def test_switch_search_matches_exhaustive_on_bundled_specs(bundled_specs):
    for name, spec in bundled_specs.items():
        assert outcome(synthesize, spec) == outcome(exhaustive_synthesize, spec), name


@pytest.mark.parametrize("seed", [3, 11])
def test_switch_search_matches_exhaustive_on_three_format_sweep(seed):
    rows = kusto_rows(seed)
    for n in range(3, 10):
        spec = three_format_spec(rows, n)
        got = outcome(synthesize, spec)
        assert isinstance(got, str), (n, got)
        assert got == outcome(exhaustive_synthesize, spec), n


@pytest.mark.parametrize("name", sorted(HAND_SPECS_WITH_NEGATIVES))
def test_switch_search_matches_exhaustive_with_negatives(name):
    pairs, negatives = HAND_SPECS_WITH_NEGATIVES[name]
    spec = spec_of(pairs, negatives)
    assert outcome(synthesize, spec) == outcome(exhaustive_synthesize, spec)


# --- switch search: the predicate truth table ---------------------------------

# Pieces that start, end or repeat every token class, clause markers among them.
TABLE_PIECES = (
    "a", "Zq", "7", "x9", " ", "\t", "\n", "$", "$v1", "-", "-f", ".", "/", "|",
    "'", '"', "{", "}", ",", "=", "_", "<CL1>", "</CL1>", "<CL2>",
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(TABLE_PIECES), max_size=12).map("".join), max_size=5),
    st.integers(1, 4),
)
def test_truth_table_bits_match_predicate_holds(strings, max_occurrence):
    # Pieces repeat, so strings often hold more matches than max_occurrence.
    bounds = Bounds(max_occurrence=max_occurrence)
    table = synthesis._truth_table(strings, bounds)
    for args, mask in table:
        pred = Predicate(*args)
        for i, s in enumerate(strings):
            assert bool(mask >> i & 1) == pred.holds(s), (pred, s)
        assert not mask >> len(strings)
    # Every candidate in candidate order, less the contains(c, k) that hold
    # on no string.
    assert [Predicate(*args) for args, _ in table] == [
        p
        for p in predicate_candidates(bounds)
        if p.kind != "contains" or any(p.holds(s) for s in strings)
    ]


def test_synthesis_time_does_not_grow_with_max_occurrence(bundled_specs):
    # kusto_table needs a switch, so the truth table is built; a contains(c, k)
    # above every input's count of c can guard nothing.
    spec = bundled_specs["kusto_table"]
    want = serialize(synthesize(spec, Bounds(max_occurrence=100)))
    t0 = time.perf_counter()
    got = serialize(synthesize(spec, Bounds(max_occurrence=10**9)))
    assert time.perf_counter() - t0 < 1.0
    assert got == want


# --- switch search: work per round --------------------------------------------

# One call for the single-branch attempt, then per round at most one per
# candidate predicate (100 with the default bounds) plus the subset of all
# remaining pairs.
PER_ROUND = 101


@pytest.fixture
def branch_calls(monkeypatch):
    calls = []
    learn = synthesis._branch_for_pairs

    def counting(pairs, bounds, positions):
        calls.append(len(pairs))
        return learn(pairs, bounds, positions)

    monkeypatch.setattr(synthesis, "_branch_for_pairs", counting)
    return calls


def test_fifteen_example_switch_visits_only_predicate_subsets(branch_calls):
    spec = three_format_spec(kusto_rows(5), 15)
    prog = synthesize(spec)
    assert prog.cases
    for inp, out in spec.pairs:
        assert prog.eval(inp) == out
    assert len(branch_calls) <= 1 + PER_ROUND * len(prog.branches)


def test_switch_search_derives_each_candidate_position_once(monkeypatch):
    # Subsets that share a first input ask for the same offsets; the memo of
    # one synthesize call answers every repeat.
    calls = collections.Counter()
    derive = synthesis.positions_resolving_to

    def counting(s, i, bounds=DEFAULT_BOUNDS):
        calls[s, i] += 1
        return derive(s, i, bounds)

    monkeypatch.setattr(synthesis, "positions_resolving_to", counting)
    prog = synthesize(three_format_spec(kusto_rows(5), 15))
    assert prog.cases
    assert calls and max(calls.values()) == 1


def test_uncoverable_spec_fails_after_one_round(branch_calls):
    # Outputs share no character with their inputs, so no subset has a
    # branch; an exhaustive walk would try all 2^16 subsets.
    words = ("alpha", "Beta", "gamma", "DELTA")
    pairs = [
        (f"{words[i % 4]} {i}" if i % 2 else f"{i}:{words[i % 4]}.x", "#" * (1 + i % 3))
        for i in range(16)
    ]
    spec = spec_of(pairs)
    with pytest.raises(SynthesisFailure) as err:
        synthesize(spec)
    assert err.value.unmet_pairs == pairs
    assert len(branch_calls) <= 1 + PER_ROUND
