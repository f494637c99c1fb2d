import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsgkit.dsl import (
    ALPHABET,
    CLASS_BY_NAME,
    AbsPos,
    Branch,
    ConstStr,
    EvalFailure,
    NoMatch,
    OutOfRange,
    ParseError,
    Predicate,
    RegPos,
    Single,
    SubStr,
    Switch,
    eval_program,
    parse,
    program_key,
    serialize,
)

ALPHA = CLASS_BY_NAME["Alpha"]
DOLLAR_WORD = CLASS_BY_NAME["DollarWord"]
DOT = CLASS_BY_NAME["Dot"]
WS = CLASS_BY_NAME["Whitespace"]


def test_abs_positions():
    assert AbsPos(0).resolve("anything") == 0
    assert AbsPos(3).resolve("abcdef") == 3
    assert AbsPos(-1).resolve("abcdef") == 6
    with pytest.raises(OutOfRange):
        AbsPos(9).resolve("abc")


@given(st.text(max_size=30))
def test_abs_minus_one_is_length(s):
    assert AbsPos(-1).resolve(s) == len(s)


def test_dollar_word_span():
    # First '$' up to the end of the first dollar-word: "$mb".
    s = "$mb = Get-Mailbox senderOrRecipientMailbox"
    start = RegPos(None, DOLLAR_WORD, 1).resolve(s)
    end = RegPos(DOLLAR_WORD, None, 1).resolve(s)
    assert (start, end) == (0, 3)
    assert s[start:end] == "$mb"


def test_last_dot_boundary():
    s = "cluster('A').database('b').AutoTriageIcmNer | sort"
    idx = RegPos(DOT, None, -1).resolve(s)
    assert s[idx:].startswith("AutoTriageIcmNer")
    assert s[idx - 1] == "."


def test_two_sided_boundary_requires_both():
    s = "a b.c"
    # Alpha ends and Dot starts only at the '.' after 'b'.
    assert RegPos(ALPHA, DOT, 1).resolve(s) == 3
    with pytest.raises(NoMatch):
        RegPos(ALPHA, DOT, 2).resolve(s)


def test_const_atom():
    assert eval_program(Single(Branch((ConstStr("x"),))), "whatever") == "x"
    with pytest.raises(ValueError):
        ConstStr("")


def test_substring_start_after_end_fails():
    prog = Single(Branch((SubStr(AbsPos(-1), AbsPos(0)),)))
    with pytest.raises(EvalFailure):
        eval_program(prog, "abc")


def test_kusto_table_prefix_program():
    prog = Single(
        Branch((SubStr(RegPos(CLASS_BY_NAME["StartAnchor"], ALPHA, 1), RegPos(None, WS, 1)),))
    )
    assert eval_program(prog, "TbaFilteringException | where time > ago(1d)") == (
        "TbaFilteringException"
    )


def test_adf_subscription_program():
    slash = CLASS_BY_NAME["Slash"]
    alnum = CLASS_BY_NAME["Alphanumeric"]
    prog = Single(Branch((SubStr(RegPos(slash, alnum, -3), RegPos(alnum, slash, -2)),)))
    assert eval_program(prog, "https://adf.azure.com/subsc/SUB1/resourceGroups/rgA") == "SUB1"


def test_switch_without_default_fails_when_nothing_matches():
    prog = Switch(
        ((Predicate("contains", DOT, 1), Branch((ConstStr("dot"),))),), default=None
    )
    assert eval_program(prog, "a.b") == "dot"
    with pytest.raises(EvalFailure):
        eval_program(prog, "no dots here")


def test_switch_first_matching_case_wins():
    prog = Switch(
        (
            (Predicate("startswith", ALPHA), Branch((ConstStr("first"),))),
            (Predicate("contains", ALPHA, 1), Branch((ConstStr("second"),))),
        ),
        default=Branch((ConstStr("fallback"),)),
    )
    assert eval_program(prog, "abc") == "first"
    assert eval_program(prog, "1abc") == "second"
    assert eval_program(prog, "123") == "fallback"


def test_predicates():
    assert Predicate("startswith", ALPHA).holds("abc 1")
    assert not Predicate("startswith", ALPHA).holds("1abc")
    assert Predicate("endswith", CLASS_BY_NAME["Digits"]).holds("x 42")
    assert Predicate("contains", CLASS_BY_NAME["Pipe"], 2).holds("a | b | c")
    assert not Predicate("contains", CLASS_BY_NAME["Pipe"], 2).holds("a | b")


# --- serialization -----------------------------------------------------------


FIXTURE_PROGRAMS = [
    Single(Branch((ConstStr('say "hi"'),))),
    Single(Branch((SubStr(AbsPos(0), AbsPos(-1)),))),
    Single(Branch((SubStr(RegPos(None, DOLLAR_WORD, 1), RegPos(DOLLAR_WORD, None, 1)),))),
    Single(
        Branch(
            (
                ConstStr("-"),
                SubStr(RegPos(WS, None, 2), RegPos(None, WS, -1)),
                SubStr(RegPos(DOT, ALPHA, -1), AbsPos(-1)),
            )
        )
    ),
    Switch(
        (
            (Predicate("contains", CLASS_BY_NAME["Pipe"], 2), Branch((ConstStr("a"),))),
            (Predicate("endswith", ALPHA), Branch((SubStr(AbsPos(0), AbsPos(2)),))),
        ),
        default=Branch((ConstStr("z"),)),
    ),
    Switch(
        ((Predicate("startswith", ALPHA), Branch((SubStr(AbsPos(0), AbsPos(1)),))),),
        default=None,
    ),
]


@pytest.mark.parametrize("prog", FIXTURE_PROGRAMS, ids=range(len(FIXTURE_PROGRAMS)))
def test_serialize_parse_round_trip(prog):
    text = serialize(prog)
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


# --- ranking -----------------------------------------------------------------


def test_single_ranks_before_switch():
    single = FIXTURE_PROGRAMS[1]
    switch = FIXTURE_PROGRAMS[4]
    assert program_key(single) < program_key(switch)


def test_regpos_ranks_before_abspos():
    reg = Single(Branch((SubStr(RegPos(None, ALPHA, 1), RegPos(ALPHA, None, 1)),)))
    ab = Single(Branch((SubStr(AbsPos(0), AbsPos(3)),)))
    assert program_key(reg) < program_key(ab)


def test_const_ranks_last():
    const = Single(Branch((ConstStr("abc"),)))
    ab = Single(Branch((SubStr(AbsPos(0), AbsPos(3)),)))
    assert program_key(ab) < program_key(const)


def test_equal_score_falls_back_to_serialization():
    a = Single(Branch((SubStr(RegPos(None, ALPHA, 1), RegPos(ALPHA, None, 1)),)))
    b = Single(Branch((SubStr(RegPos(None, ALPHA, 2), RegPos(ALPHA, None, 1)),)))
    assert program_key(a)[:3] == program_key(b)[:3]
    assert (program_key(a) < program_key(b)) == (serialize(a) < serialize(b))
    assert program_key(a) != program_key(b)


# --- invariants --------------------------------------------------------------


@st.composite
def substr_atoms(draw):
    classes = draw(st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=2))
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
    prog = Single(Branch((SubStr(RegPos(ALPHA, None, 1), RegPos(None, DOT, -1)),)))
    try:
        first = eval_program(prog, s)
        second = eval_program(prog, s)
        assert first == second
    except EvalFailure:
        pass
