import re
from functools import cache
from itertools import combinations

import numpy as np
import pytest

from oracle_enum import consistent_single_atoms, oracle_best_single
from tsgkit import synthesis
from tsgkit.corpusgen import generate_corpus
from tsgkit.dsl import EvalFailure, Single, Switch, eval_program, program_key, serialize
from tsgkit.synthesis import (
    DEFAULT_BOUNDS,
    Bounds,
    ExampleSpec,
    NoOccurrence,
    SynthesisFailure,
    generate_atoms,
    synthesize,
)


def spec_of(pairs, negatives=(), component="t", name="c"):
    return ExampleSpec(component, name, list(pairs), list(negatives))


# --- atom generation ---------------------------------------------------------


def test_generate_atoms_requires_occurrence():
    with pytest.raises(NoOccurrence):
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
    assert isinstance(prog, Single)
    for inp, out in spec.pairs:
        assert prog.eval(inp) == out


def test_identity_branch_for_single_pair():
    prog = synthesize(spec_of([("abc def", "abc def")]))
    assert isinstance(prog, Single)
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
    assert isinstance(prog, Switch)
    assert len(prog.branches) == 2
    for inp, out in spec.pairs:
        assert eval_program(prog, inp) == out


def test_three_format_spec_covers_all(bundled_specs):
    spec = bundled_specs["kusto_table"]
    prog = synthesize(spec)
    assert isinstance(prog, Switch)
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


# --- switch search: equivalence with the exhaustive subset walk ---------------


def _find_predicate(true_on, false_on, bounds):
    for pred in synthesis._predicate_candidates(bounds):
        if all(pred.holds(s) for s in true_on) and not any(pred.holds(s) for s in false_on):
            return pred
    return None


def exhaustive_synthesize(spec, bounds=DEFAULT_BOUNDS):
    """Reference search: each case tries every subset of the uncovered pairs,
    largest first and in `combinations` order, and takes the first one with a
    branch and a predicate separating it from the other pairs and negatives."""
    pairs, negatives = list(spec.pairs), list(spec.negatives)
    branch_for = cache(
        lambda subset: synthesis._branch_for_pairs([pairs[i] for i in subset], bounds)
    )
    single = branch_for(tuple(range(len(pairs))))
    if single is not None and not any(
        synthesis._program_succeeds(Single(single), n) for n in negatives
    ):
        return Single(single)
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
            return Single(cases[0][1])
        return Switch(tuple(cases[:-1]), default=cases[-1][1])
    return Switch(tuple(cases), default=None)


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


# --- switch search: work per round --------------------------------------------

# One call for the single-branch attempt, then per round at most one per
# candidate predicate (100 with the default bounds) plus the subset of all
# remaining pairs.
PER_ROUND = 101


@pytest.fixture
def branch_calls(monkeypatch):
    calls = []
    learn = synthesis._branch_for_pairs

    def counting(pairs, bounds):
        calls.append(len(pairs))
        return learn(pairs, bounds)

    monkeypatch.setattr(synthesis, "_branch_for_pairs", counting)
    return calls


def test_fifteen_example_switch_visits_only_predicate_subsets(branch_calls):
    spec = three_format_spec(kusto_rows(5), 15)
    prog = synthesize(spec)
    assert isinstance(prog, Switch)
    for inp, out in spec.pairs:
        assert prog.eval(inp) == out
    assert len(branch_calls) <= 1 + PER_ROUND * len(prog.branches)


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
