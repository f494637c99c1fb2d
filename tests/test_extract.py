import importlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsgkit.dsl import Branch, ConstStr, ExtractionProgram, parse, serialize
from tsgkit.extract import (
    ParserRegistry,
    RegistryEntry,
    extract,
    extract_repeating,
    load_registry,
    save_registry,
    split_pipes,
)
from tsgkit.ingest import Statement, tokenize

# The package exports the function `extract`, which hides the module.
extract_module = importlib.import_module("tsgkit.extract")


def stmt(text):
    return Statement(text, 1, 1, tuple(tokenize(text)))


def prog(text):
    return parse(text)


PARAM_NAME = "sub(pos(Whitespace,Dash,1),pos(Alpha,Whitespace,2))"
PARAM_VALUE = "sub(pos(Whitespace,Alphanumeric,1),pos(DottedName,eps,3))"
PAPER_COMMAND = "Test-PolicyDistributionStatus -Org nybc.com -PolicyId 8dbdfce9 -Verbose True"


# --- split_pipes -------------------------------------------------------------


def test_split_pipes_basic():
    assert split_pipes("$m | Format-List $db") == ["$m", "Format-List $db"]


def test_split_pipes_respects_quotes():
    text = 'StormEvents | where State == "FL|ORIDA" | count'
    assert split_pipes(text) == ["StormEvents", 'where State == "FL|ORIDA"', "count"]
    assert split_pipes("say 'a|b' | next") == ["say 'a|b'", "next"]


def test_split_pipes_no_pipe():
    assert split_pipes("plain") == ["plain"]


def reference_split_pipes(text):
    """The character loop `split_pipes` replaced, kept as its reference."""
    segments, buf, quote = [], [], ""
    for ch in text:
        if quote:
            buf.append(ch)
            if ch == quote:
                quote = ""
        elif ch in "\"'":
            quote = ch
            buf.append(ch)
        elif ch == "|":
            segments.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
    segments.append("".join(buf).strip())
    return [s for s in segments if s]


@pytest.mark.parametrize(
    "text",
    ["", "|", "||", "a || b", "| a |", "say 'open | x", 'a "b | c', "'a\"|'|\"b'|c", " \t|\n"],
)
def test_split_pipes_edge_cases_match_reference(text):
    assert split_pipes(text) == reference_split_pipes(text)


@given(st.text(alphabet="ab |'\" x\t", max_size=24))
def test_split_pipes_matches_reference(text):
    assert split_pipes(text) == reference_split_pipes(text)


# --- iterative extraction ----------------------------------------------------


def test_paper_command_three_iterations():
    tuples = extract_repeating(PAPER_COMMAND, [prog(PARAM_NAME), prog(PARAM_VALUE)])
    assert tuples == [
        ("-Org", "nybc.com"),
        ("-PolicyId", "8dbdfce9"),
        ("-Verbose", "True"),
    ]


def test_zero_parameters_zero_iterations():
    assert extract_repeating("Get-Status", [prog(PARAM_NAME)]) == []


def test_constant_parser_hits_iteration_limit():
    # A constant program always "extracts" but never shrinks the text.
    warnings = []
    tuples = extract_repeating(
        "yyy",
        [ExtractionProgram(default=Branch((ConstStr("x"),)))],
        max_iterations=100,
        warnings=warnings,
    )
    assert len(tuples) == 100
    assert warnings and warnings[0].kind == "IterationLimitExceeded"


def test_iteration_limit_warning_names_the_statement_line():
    # More than 100 iterations: the constant never leaves the text.
    registry = ParserRegistry()
    registry.put(RegistryEntry("x", "forever", prog('const("x")'), repeats=True))
    warnings = []
    parsed = extract(Statement("yyy", 7, 9, ("yyy",)), "x", registry, warnings=warnings)
    assert len(parsed.constituents["forever"]) == 100
    assert [(w.kind, w.line) for w in warnings] == [("IterationLimitExceeded", 7)]


def test_overlapping_values_delete_longest_first():
    first = prog('const("abc")')
    second = prog('const("ab")')
    tuples = extract_repeating("abc ab", [first, second], max_iterations=1, warnings=[])
    assert tuples == [("abc", "ab")]


def test_termination_on_shrinking_text():
    # Each round extracts the first character; the text strictly shrinks.
    first_char = prog("sub(abs(0),abs(1))")
    tuples = extract_repeating("aaaa", [first_char])
    assert tuples == [("a",), ("a",), ("a",), ("a",)]


# --- registry ----------------------------------------------------------------


PS_COMMAND = "sub(pos(StartAnchor,Alpha,-1),pos(Alpha,Whitespace,1))"


def sample_registry():
    reg = ParserRegistry()
    reg.put(RegistryEntry("powershell", "param_name", prog(PARAM_NAME), True, ("split_pipes",)))
    reg.put(RegistryEntry("powershell", "param_value", prog(PARAM_VALUE), True, ("split_pipes",)))
    reg.put(
        RegistryEntry(
            "powershell",
            "command",
            prog(PS_COMMAND),
            False,
            ("split_pipes",),
        )
    )
    return reg


def test_registry_round_trip(tmp_path):
    reg = sample_registry()
    # Line breaks str.splitlines() splits on, and characters a string literal escapes.
    joined = ExtractionProgram(default=Branch((ConstStr('\n \r \t " \\ \x85 \u2028'),)))
    reg.put(RegistryEntry("demo", "joined", joined, False, ()))
    path = tmp_path / "registry.txt"
    save_registry(reg, str(path))
    loaded = load_registry(str(path))
    assert [
        (e.component, e.constituent, e.repeats, e.preprocess) for e in loaded.entries
    ] == [(e.component, e.constituent, e.repeats, e.preprocess) for e in reg.entries]
    assert [serialize(e.program) for e in loaded.entries] == [
        serialize(e.program) for e in reg.entries
    ]
    assert loaded.entries[-1].program == joined


def test_registry_round_trip_preserves_extraction(tmp_path):
    reg = sample_registry()
    path = tmp_path / "registry.txt"
    save_registry(reg, str(path))
    loaded = load_registry(str(path))
    before = extract(stmt(PAPER_COMMAND), "powershell", reg)
    after = extract(stmt(PAPER_COMMAND), "powershell", loaded)
    assert before.constituents == after.constituents
    assert before.missing == after.missing


def test_registry_put_replaces_in_place():
    reg = sample_registry()
    reg.put(RegistryEntry("powershell", "command", prog('const("x")'), False, ()))
    assert [e.constituent for e in reg.for_component("powershell")] == [
        "param_name",
        "param_value",
        "command",
    ]


@pytest.mark.parametrize("order", [("cmd", "whole"), ("whole", "cmd")])
def test_registry_rejects_repeating_entries_of_differing_flags(order):
    # All repeating entries of a component run over one set of segments.
    entries = {
        "cmd": RegistryEntry("ps", "cmd", prog(PS_COMMAND), True, ("split_pipes",)),
        "whole": RegistryEntry("ps", "whole", prog("sub(abs(0),abs(-1))"), True, ()),
    }
    first, second = (entries[name] for name in order)
    reg = ParserRegistry()
    reg.put(first)
    with pytest.raises(ValueError) as err:
        reg.put(second)
    assert str(err.value) == (
        f"repeating ps.{second.constituent} has preprocess flags "
        f"{list(second.preprocess)}, but repeating ps.{first.constituent} has "
        f"{list(first.preprocess)}"
    )
    assert reg.entries == [first]


def test_registry_flag_check_spares_replaced_and_single_entries():
    reg = ParserRegistry()
    reg.put(RegistryEntry("ps", "cmd", prog(PS_COMMAND), True, ("split_pipes",)))
    reg.put(RegistryEntry("ps", "cmd", prog(PS_COMMAND), True, ()))
    reg.put(RegistryEntry("ps", "name", prog(PS_COMMAND), False, ("split_pipes",)))
    reg.put(RegistryEntry("other", "whole", prog(PS_COMMAND), True, ("split_pipes",)))
    assert [(e.constituent, e.preprocess) for e in reg.entries] == [
        ("cmd", ()), ("name", ("split_pipes",)), ("whole", ("split_pipes",))
    ]


def test_bad_registry_header_rejected(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("nope\n")
    with pytest.raises(ValueError):
        load_registry(str(path))


# --- extract -----------------------------------------------------------------


def test_extract_full_component():
    got = extract(stmt(PAPER_COMMAND), "powershell", sample_registry())
    assert got.constituents["command"] == "Test-PolicyDistributionStatus"
    assert got.constituents["param_name"] == ["-Org", "-PolicyId", "-Verbose"]
    assert got.constituents["param_value"] == ["nybc.com", "8dbdfce9", "True"]
    assert got.missing == set()


def test_extract_failure_is_data_not_error():
    reg = ParserRegistry()
    reg.put(
        RegistryEntry(
            "adf",
            "subscription",
            prog("sub(pos(Slash,Alphanumeric,-3),pos(Alphanumeric,Slash,-2))"),
            False,
            (),
        )
    )
    got = extract(stmt("hello world"), "adf", reg)
    assert got.constituents == {}
    assert got.missing == {"subscription"}


def test_extract_piped_statement_first_success_wins():
    got = extract(stmt("$m | Format-List $db"), "powershell", sample_registry())
    assert got.constituents["command"] == "Format-List"


def test_extract_does_not_mutate_statement():
    s = stmt(PAPER_COMMAND)
    raw_before = s.raw
    extract(s, "powershell", sample_registry())
    assert s.raw == raw_before


def test_extract_values_are_substrings_or_constants(registry):
    s = stmt("$rules = Get-TransportRule -Organization $org")
    got = extract(s, "torus", registry)
    for value in got.constituents.values():
        items = value if isinstance(value, list) else [value]
        for item in items:
            assert item in s.raw


@pytest.mark.parametrize(
    "component, text, counted",
    [
        ("natural_language", "If the queue is full, then restart the worker.", "tag_clauses"),
        ("powershell", "$m = Get-Mailbox -Identity x | Format-List -Property Name", "split_pipes"),
        ("torus", "$r = Get-TransportRule -Organization contoso | Remove-Item", "split_pipes"),
    ],
)
def test_extract_preprocesses_once_per_flag_tuple(registry, monkeypatch, component, text, counted):
    before = extract(stmt(text), component, registry)
    calls = []
    original = getattr(extract_module, counted)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(extract_module, counted, counting)
    after = extract(stmt(text), component, registry)
    flag_tuples = {e.preprocess for e in registry.for_component(component)}
    assert len(flag_tuples) == 1 and len(registry.for_component(component)) >= 2
    assert len(calls) == 1
    assert (after.constituents, after.missing) == (before.constituents, before.missing)
