import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgkit.dsl import (
    ALPHABET,
    AbsPos,
    Branch,
    ConstStr,
    EvalFailure,
    ExtractionProgram,
    ParseError,
    Predicate,
    INDEX_CACHE_MAX_LEN,
    INDEX_CACHE_SIZE,
    RegPos,
    SubStr,
    boundary_index,
    eval_program,
    parse,
    program_key,
    serialize,
)
from tsgkit.synthesis import DEFAULT_BOUNDS, positions_resolving_to, synthesize


def test_abs_positions():
    assert AbsPos(0).resolve("anything") == 0
    assert AbsPos(3).resolve("abcdef") == 3
    assert AbsPos(-1).resolve("abcdef") == 6
    with pytest.raises(EvalFailure, match=r"^abs\(9\) outside \[0, 3\]$"):
        AbsPos(9).resolve("abc")


@given(st.text(max_size=30))
def test_abs_minus_one_is_length(s):
    assert AbsPos(-1).resolve(s) == len(s)


def test_dollar_word_span():
    # First '$' up to the end of the first dollar-word: "$mb".
    s = "$mb = Get-Mailbox senderOrRecipientMailbox"
    start = RegPos(None, "DollarWord", 1).resolve(s)
    end = RegPos("DollarWord", None, 1).resolve(s)
    assert (start, end) == (0, 3)
    assert s[start:end] == "$mb"


def test_last_dot_boundary():
    s = "cluster('A').database('b').AutoTriageIcmNer | sort"
    idx = RegPos("Dot", None, -1).resolve(s)
    assert s[idx:].startswith("AutoTriageIcmNer")
    assert s[idx - 1] == "."


def test_two_sided_boundary_requires_both():
    s = "a b.c"
    # Alpha ends and Dot starts only at the '.' after 'b'.
    assert RegPos("Alpha", "Dot", 1).resolve(s) == 3
    with pytest.raises(EvalFailure, match=r"^pos\(Alpha,Dot,2\) has no boundary #2$"):
        RegPos("Alpha", "Dot", 2).resolve(s)


def test_const_atom():
    assert eval_program(ExtractionProgram(default=Branch((ConstStr("x"),))), "whatever") == "x"
    with pytest.raises(ValueError):
        ConstStr("")


def test_substring_start_after_end_fails():
    prog = ExtractionProgram(default=Branch((SubStr(AbsPos(-1), AbsPos(0)),)))
    with pytest.raises(EvalFailure):
        eval_program(prog, "abc")


def test_kusto_table_prefix_program():
    prog = ExtractionProgram(
        default=Branch(
            (SubStr(RegPos("StartAnchor", "Alpha", 1), RegPos(None, "Whitespace", 1)),)
        )
    )
    assert eval_program(prog, "TbaFilteringException | where time > ago(1d)") == (
        "TbaFilteringException"
    )


def test_adf_subscription_program():
    prog = ExtractionProgram(
        default=Branch(
            (SubStr(RegPos("Slash", "Alphanumeric", -3), RegPos("Alphanumeric", "Slash", -2)),)
        )
    )
    assert eval_program(prog, "https://adf.azure.com/subsc/SUB1/resourceGroups/rgA") == "SUB1"


def test_switch_without_default_fails_when_nothing_matches():
    prog = ExtractionProgram(
        ((Predicate("contains", "Dot", 1), Branch((ConstStr("dot"),))),), default=None
    )
    assert eval_program(prog, "a.b") == "dot"
    with pytest.raises(EvalFailure):
        eval_program(prog, "no dots here")


def test_program_needs_a_case_or_default():
    with pytest.raises(ValueError):
        ExtractionProgram()


def test_switch_first_matching_case_wins():
    prog = ExtractionProgram(
        (
            (Predicate("startswith", "Alpha"), Branch((ConstStr("first"),))),
            (Predicate("contains", "Alpha", 1), Branch((ConstStr("second"),))),
        ),
        default=Branch((ConstStr("fallback"),)),
    )
    assert eval_program(prog, "abc") == "first"
    assert eval_program(prog, "1abc") == "second"
    assert eval_program(prog, "123") == "fallback"


def test_predicates():
    assert Predicate("startswith", "Alpha").holds("abc 1")
    assert not Predicate("startswith", "Alpha").holds("1abc")
    assert Predicate("endswith", "Digits").holds("x 42")
    assert Predicate("contains", "Pipe", 2).holds("a | b | c")
    assert not Predicate("contains", "Pipe", 2).holds("a | b")


# --- serialization -----------------------------------------------------------


# Line breaks str.splitlines() splits on, and characters a string literal escapes.
LINE_BREAKS = 'a\nb\rc\td"e\\f\x85g\u2028h'

FIXTURE_PROGRAMS = [
    ExtractionProgram(default=Branch((ConstStr('say "hi"'),))),
    ExtractionProgram(default=Branch((SubStr(AbsPos(0), AbsPos(-1)),))),
    ExtractionProgram(
        default=Branch((SubStr(RegPos(None, "DollarWord", 1), RegPos("DollarWord", None, 1)),))
    ),
    ExtractionProgram(
        default=Branch(
            (
                ConstStr("-"),
                SubStr(RegPos("Whitespace", None, 2), RegPos(None, "Whitespace", -1)),
                SubStr(RegPos("Dot", "Alpha", -1), AbsPos(-1)),
            )
        )
    ),
    ExtractionProgram(
        (
            (Predicate("contains", "Pipe", 2), Branch((ConstStr("a"),))),
            (Predicate("endswith", "Alpha"), Branch((SubStr(AbsPos(0), AbsPos(2)),))),
        ),
        default=Branch((ConstStr("z"),)),
    ),
    ExtractionProgram(
        ((Predicate("startswith", "Alpha"), Branch((SubStr(AbsPos(0), AbsPos(1)),))),),
        default=None,
    ),
    ExtractionProgram(default=Branch((ConstStr(LINE_BREAKS), SubStr(AbsPos(0), AbsPos(1))))),
]


@pytest.mark.parametrize("prog", FIXTURE_PROGRAMS, ids=range(len(FIXTURE_PROGRAMS)))
def test_serialize_parse_round_trip(prog):
    text = serialize(prog)
    assert "\n" not in text and "\r" not in text
    again = parse(text)
    assert again == prog
    assert serialize(again) == text


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "sub(pos(Alpha,eps,1)",
        "sub(pos(Alpha,eps,0),abs(1))",
        "switch(default(const(\"x\")))",
        "frob(1)",
        "sub(pos(NotAClass,eps,1),abs(0))",
        'const("unterminated)',
        "sub(abs(1),abs(2)) trailing",
    ],
)
def test_parse_errors(bad):
    with pytest.raises((ParseError, ValueError)):
        parse(bad)


def test_parse_error_carries_position():
    try:
        parse("sub(abs(1),abs(2)) junk")
    except ParseError as err:
        assert err.position > 0
    else:
        pytest.fail("expected ParseError")


@pytest.mark.parametrize(
    "bad,position",
    [
        ("", 0),
        ("sub(pos(Alpha,eps,1)", 20),
        ('switch(default(const("x")))', 27),
        ("frob(1)", 4),
        ("sub(pos(NotAClass,eps,1),abs(0))", 17),
        ('const("unterminated)', 20),
        ('const("a\\q")', 8),
        ('const("dangling\\', 16),
        ("sub(abs(1),abs(2)) trailing", 19),
        ("sub( abs( -3 ),abs(  - 2))", 21),
        ("  ", 2),
        ('switch(case(startswith(Alpha),const("a")),default(sub(abs(1),))', 61),
        ("sub(abs(1),abs(2))+  ", 21),
        ("sub(abs(x),abs(1))", 8),
        ("sub(pos(Alpha,eps,x),abs(0))", 18),
        ('switch(case(contains(Pipe,x),const("a")))', 26),
        ('const("")', 9),
        ("sub(pos(Alpha,eps,0),abs(0))", 20),
        ('switch(case(contains(Pipe,0),const("a")))', 28),
    ],
)
def test_parse_error_offsets(bad, position):
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert err.value.position == position


class _UnsliceableText(str):
    """Program text that fails the test if the parser copies a slice of it."""

    def __getitem__(self, key):
        assert not isinstance(key, slice), f"parser sliced the program text: {key}"
        return str.__getitem__(self, key)


def test_long_program_parses_without_copying_the_rest():
    atoms = [
        f'const("{i}")' if i % 2 else f"sub(pos(Alpha,eps,{i % 7 + 1}),abs(-1))"
        for i in range(4000)
    ]
    text = "+".join(atoms)
    prog = parse(_UnsliceableText(text))
    assert len(prog.default.atoms) == 4000
    assert serialize(prog) == text


def test_bundled_spec_programs_reserialize_to_the_same_bytes(bundled_specs):
    for name, spec in sorted(bundled_specs.items()):
        text = serialize(synthesize(spec))
        again = parse(text)
        assert serialize(again) == text, name
        assert parse(_UnsliceableText(text)) == again, name


# --- ranking -----------------------------------------------------------------


def test_single_ranks_before_switch():
    single = FIXTURE_PROGRAMS[1]
    switch = FIXTURE_PROGRAMS[4]
    assert program_key(single) < program_key(switch)


def test_regpos_ranks_before_abspos():
    reg = ExtractionProgram(
        default=Branch((SubStr(RegPos(None, "Alpha", 1), RegPos("Alpha", None, 1)),))
    )
    ab = ExtractionProgram(default=Branch((SubStr(AbsPos(0), AbsPos(3)),)))
    assert program_key(reg) < program_key(ab)


def test_const_ranks_last():
    const = ExtractionProgram(default=Branch((ConstStr("abc"),)))
    ab = ExtractionProgram(default=Branch((SubStr(AbsPos(0), AbsPos(3)),)))
    assert program_key(ab) < program_key(const)


def test_equal_score_falls_back_to_serialization():
    a = ExtractionProgram(
        default=Branch((SubStr(RegPos(None, "Alpha", 1), RegPos("Alpha", None, 1)),))
    )
    b = ExtractionProgram(
        default=Branch((SubStr(RegPos(None, "Alpha", 2), RegPos("Alpha", None, 1)),))
    )
    assert program_key(a)[:3] == program_key(b)[:3]
    assert (program_key(a) < program_key(b)) == (serialize(a) < serialize(b))
    assert program_key(a) != program_key(b)


# --- invariants --------------------------------------------------------------


@st.composite
def substr_atoms(draw):
    classes = draw(st.lists(st.sampled_from(list(ALPHABET)), min_size=1, max_size=2))
    occ = draw(st.sampled_from([1, 2, -1, -2]))
    left = classes[0]
    right = classes[1] if len(classes) > 1 else None
    return SubStr(RegPos(left, right, occ), AbsPos(-1))


@given(substr_atoms(), st.text(min_size=0, max_size=40))
def test_successful_substring_is_contiguous(atom, s):
    try:
        out = atom.eval(s)
    except EvalFailure:
        return
    assert out in s


@given(st.text(max_size=40))
def test_eval_total_result_or_evalfailure(s):
    prog = ExtractionProgram(
        default=Branch((SubStr(RegPos("Alpha", None, 1), RegPos(None, "Dot", -1)),))
    )
    try:
        first = eval_program(prog, s)
        second = eval_program(prog, s)
        assert first == second
    except EvalFailure:
        pass


# --- boundary index ----------------------------------------------------------
#
# The index must give exactly what scanning each class's matches gives.  The
# reference below re-runs `re.finditer` and sorts on every call.

SIDES = (None, *ALPHABET)
OCCURRENCES = (1, 2, 3, -1, -2, -3)

index_text = st.lists(
    st.one_of(
        st.sampled_from(list("aZq09 \t\n$-./|\"'{},=_") + ["<CL1>", "</CL2>"]),
        st.sampled_from(list("é中ß٣\u00a0\u2003")),
        st.characters(),
    ),
    max_size=24,
).map("".join)


def reference_spans(s):
    return {name: [m.span() for m in re.finditer(p, s)] for name, p in ALPHABET.items()}


def reference_boundaries(spans, left, right):
    if left is not None and right is not None:
        ends = {e for _, e in spans[left]}
        return sorted({b for b, _ in spans[right] if b in ends})
    if left is not None:
        return sorted({e for _, e in spans[left]})
    return sorted({b for b, _ in spans[right]})


def reference_resolve(spans, pos):
    bs = reference_boundaries(spans, pos.left, pos.right)
    idx = pos.occurrence - 1 if pos.occurrence > 0 else len(bs) + pos.occurrence
    return bs[idx] if 0 <= idx < len(bs) else EvalFailure


def resolve_or_failure(pos, s):
    try:
        return pos.resolve(s)
    except EvalFailure:
        return EvalFailure


def reg_positions():
    for left in SIDES:
        for right in SIDES:
            if left is not None or right is not None:
                for occ in OCCURRENCES:
                    yield RegPos(left, right, occ)


@settings(max_examples=60, deadline=None)
@given(index_text)
def test_boundary_index_matches_rescanning_reference(s):
    spans = reference_spans(s)
    for pos in reg_positions():
        assert resolve_or_failure(pos, s) == reference_resolve(spans, pos), pos


@settings(max_examples=60, deadline=None)
@given(index_text)
def test_positions_resolving_to_matches_brute_force(s):
    spans = reference_spans(s)
    window = DEFAULT_BOUNDS.abs_window
    candidates = [AbsPos(k) for k in range(window + 1)]
    candidates += [AbsPos(-k) for k in range(1, window + 2)]
    candidates += [
        p for p in reg_positions() if abs(p.occurrence) <= DEFAULT_BOUNDS.max_occurrence
    ]

    def reference(p):
        if isinstance(p, RegPos):
            return reference_resolve(spans, p)
        try:
            return p.resolve(s)
        except EvalFailure:
            return None

    resolved = {p: reference(p) for p in candidates}
    for i in range(len(s) + 1):
        got = positions_resolving_to(s, i)
        assert len(got) == len(set(got))
        assert set(got) == {p for p, j in resolved.items() if j == i}, i


@settings(max_examples=60, deadline=None)
@given(index_text)
def test_predicates_match_rescanning_reference(s):
    spans = reference_spans(s)
    for name, ms in spans.items():
        assert Predicate("startswith", name).holds(s) == any(b == 0 for b, _ in ms)
        assert Predicate("endswith", name).holds(s) == any(e == len(s) for _, e in ms)
        for occ in range(1, DEFAULT_BOUNDS.max_occurrence + 1):
            assert Predicate("contains", name, occ).holds(s) == (len(ms) >= occ)


@given(index_text)
def test_results_do_not_depend_on_the_cache(s):
    pos = [p for p in reg_positions() if p.occurrence in (1, -1)]
    warm = [resolve_or_failure(p, s) for p in pos]
    boundary_index.cache_clear()
    assert [resolve_or_failure(p, s) for p in pos] == warm


ADVERSARIAL = (
    "$mb = Get-Mailbox -Identity 'a.b' | Set-Item -Force {x}, y=1 <CL1>if</CL1> \t"
    * 2_700
)[:200_000]


@pytest.mark.parametrize(
    "text",
    [ADVERSARIAL, "Überprüfen Sie die Warteschlange — 队列已满 $név = Get-Ärger -Zeit ½"],
    ids=["200k-line", "non-ascii"],
)
def test_bundled_programs_survive_adversarial_input(bundled_specs, text):
    for name, spec in bundled_specs.items():
        prog = synthesize(spec)
        try:
            out = eval_program(prog, text)
        except EvalFailure:
            continue
        assert isinstance(out, str), name


def test_index_cache_stays_bounded():
    assert boundary_index.cache_info().maxsize == INDEX_CACHE_SIZE
    prog = ExtractionProgram(
        default=Branch((SubStr(RegPos(None, "DollarWord", 1), RegPos("DollarWord", None, 1)),))
    )
    for n in range(INDEX_CACHE_SIZE + 100):
        assert eval_program(prog, f"$v{n} = x") == f"$v{n}"
    assert boundary_index.cache_info().currsize <= INDEX_CACHE_SIZE
    # A string longer than the cap is indexed, but not kept.
    held = boundary_index.cache_info().currsize
    long_line = "$long = " + "x" * 199_992
    assert len(long_line) == 200_000 > INDEX_CACHE_MAX_LEN
    assert eval_program(prog, long_line) == "$long"
    assert boundary_index.cache_info().currsize <= held
    assert boundary_index(long_line) is not boundary_index(long_line)
