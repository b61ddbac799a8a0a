"""Fibring sessions, side closures, and the alternating fixpoint."""

import dataclasses
import gc
import random
import re
import weakref
from collections import Counter

import pytest
from hypothesis import event, example, given, settings, strategies as st

from ontoweave import consequence, fibring, syntax
from ontoweave.consequence import (
    CalculusPresentation,
    Derived,
    Fuel,
    NotDerivedWithin,
    Rule,
    closure_bounded,
    derives,
    weaker_than,
)
from ontoweave.errors import CapExceeded, FormatError, LanguageError, OntoweaveError, UnknownInternIndex
from ontoweave.fibring import (
    dump_session,
    fibred_derives,
    h_closure,
    load_session,
    merge_presentations,
    open_session,
)
from ontoweave.morphisms import Translation, is_back_translatable, substitute_back, translate
from ontoweave.syntax import (
    MEMO_SLOTS,
    Memo,
    Symbol,
    apply_symbol,
    by_sort_key,
    enumerate_formulas,
    make_signature,
    parse_formula,
    signature_union,
    svar,
)
from ontoweave import presets
from conftest import memo_slots
from test_consequence import _oracle_calculi

SESSION_FUEL = Fuel(2, 14, 20_000)


def union_formula(session, text):
    return parse_formula(text, session.union_sig)


def to_side(session, side):
    """The translation from the union into one side, built from the
    session's own state."""
    return Translation(getattr(session, side).sig, session.union_sig, session.interning)


def test_open_session_idempotent_union(cpl):
    s = open_session(cpl, cpl, SESSION_FUEL)
    assert s.union_sig == cpl.sig


def test_open_session_union_levels(cpl, conj):
    s = open_session(cpl, conj, SESSION_FUEL)
    assert s.union_sig == signature_union(cpl.sig, conj.sig)
    assert to_side(s, "left").interning is to_side(s, "right").interning is s.interning


def test_a_session_is_a_frozen_value(cpl, conj):
    s = open_session(cpl, conj, SESSION_FUEL)
    assert [f.name for f in dataclasses.fields(s)] == ["left", "right", "fuel", "union_sig", "interning"]
    for name in ("left", "right", "fuel", "union_sig", "interning"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, name, getattr(s, name))


def test_opening_a_session_builds_no_translation(cpl, conj, monkeypatch):
    built = []
    translation = fibring.Translation

    def counted(*args):
        built.append(args)
        return translation(*args)

    monkeypatch.setattr(fibring, "Translation", counted)
    s = open_session(cpl, conj, SESSION_FUEL)
    assert built == []
    # a side closure builds its side's translation from the session
    h_closure(s, "right", [])
    assert built == [(conj.sig, s.union_sig, s.interning)]


def test_a_side_other_than_left_or_right_is_refused(cpl, conj):
    s = open_session(cpl, conj, SESSION_FUEL)
    assert fibring._side(s, "left")[0] is cpl and fibring._side(s, "right")[0] is conj
    message = "^side must be 'left' or 'right', got 'middle'$"
    for pick in (lambda side: fibring._side(s, side), lambda side: h_closure(s, side, [])):
        with pytest.raises(ValueError, match=message):
            pick("middle")


def test_open_session_empty_calculi():
    empty = presets.rule_free(make_signature([]))
    s = open_session(empty, empty, SESSION_FUEL)
    assert s.union_sig.arities() == ()


def test_h_closure_pure_side_extends_plain_closure(cpl):
    s = open_session(cpl, presets.conj(), SESSION_FUEL)
    gamma = [union_formula(s, "x1"), union_formula(s, "imp(x1, x2)")]
    out = h_closure(s, "left", gamma)
    assert union_formula(s, "x2") in out
    for phi in gamma:
        assert phi in out


def test_h_closure_worked_example(cpl, conj):
    # gamma = {and(x1, imp(x1, x1))}: the conjunction side recovers both
    # conjuncts, restoring the foreign implication subtree intact
    s = open_session(cpl, conj, SESSION_FUEL)
    gamma = [union_formula(s, "and(x1, imp(x1, x1))")]
    out = h_closure(s, "right", gamma)
    assert union_formula(s, "x1") in out
    assert union_formula(s, "imp(x1, x1)") in out


def test_h_closure_empty_rule_free():
    empty = presets.rule_free(make_signature([("k", 0)]))
    s = open_session(empty, empty, SESSION_FUEL)
    assert h_closure(s, "right", []) == frozenset()


def test_h_closure_rejects_foreign_formulas(cpl, conj):
    s = open_session(cpl, conj, SESSION_FUEL)
    box = parse_formula("box(x1)", make_signature([("box", 1)]))
    with pytest.raises(LanguageError):
        h_closure(s, "left", [box])


def test_fibred_derives_refuses_foreign_formulas_and_remembers_nothing(cpl, conj, cold_memo):
    s = open_session(cpl, conj, SESSION_FUEL)
    a = union_formula(s, "x1")
    box = parse_formula("box(x1)", make_signature([("box", 1)]))
    before = list(cold_memo.table.items())
    for gamma, phi in (([box], a), ([a], box)):
        with pytest.raises(LanguageError, match=r"^box\(x1\) is outside the combined language$"):
            fibred_derives(s, gamma, phi)
    assert list(cold_memo.table.items()) == before


def test_h_closure_bad_side(cpl, conj):
    s = open_session(cpl, conj, SESSION_FUEL)
    with pytest.raises(ValueError):
        h_closure(s, "middle", [])


def test_fibred_membership_round_zero(cpl, conj):
    s = open_session(cpl, conj, SESSION_FUEL)
    phi = union_formula(s, "and(x1, x2)")
    assert fibred_derives(s, [phi], phi) == Derived(0)


def test_fibred_worked_example(cpl, conj):
    # conjunction round frees x1, then modus ponens reaches x3
    s = open_session(cpl, conj, SESSION_FUEL)
    gamma = [union_formula(s, "and(x1, x2)"), union_formula(s, "imp(x1, x3)")]
    verdict = fibred_derives(s, gamma, union_formula(s, "x3"))
    assert verdict.is_derived and verdict.depth <= 2


def test_fibring_with_itself_matches_plain(cpl):
    s = open_session(cpl, cpl, SESSION_FUEL)
    gamma = [union_formula(s, "x1"), union_formula(s, "imp(x1, x2)")]
    assert fibred_derives(s, gamma, union_formula(s, "x2")) == Derived(1)


def test_fibred_cap_exceeded(cpl, conj):
    # every sound matrix designates imp(bot, bot), so the alternation runs,
    # and its growth hits the cap before the goal appears
    s = open_session(cpl, conj, Fuel(2, 14, 40))
    gamma = [union_formula(s, "x1"), union_formula(s, "x2")]
    with pytest.raises(CapExceeded, match="^combined set grew past 40 in round 1$"):
        fibred_derives(s, gamma, union_formula(s, "imp(bot, bot)"))


def test_a_separated_goal_is_answered_where_the_alternation_hits_the_cap(cpl, conj):
    # bot is an atom that no sound matrix fixes, so x1 = x2 = 1, bot = 0
    # separates it: the answer is a bounded negative at every fuel, and the
    # alternation, which the query does not run, outgrows the set cap
    fuel = Fuel(2, 14, 40)
    s = open_session(cpl, conj, fuel)
    gamma = [union_formula(s, "x1"), union_formula(s, "x2")]
    bot = union_formula(s, "bot")
    assert consequence.separating_matrix(merge_presentations(cpl, conj), gamma, bot) is not None
    assert fibred_derives(s, gamma, bot) == NotDerivedWithin(fuel)
    assert len(s.interning) == 0
    with pytest.raises(CapExceeded, match="^combined set grew past 40 in round 1$"):
        fibring._alternate(open_session(cpl, conj, fuel), set(gamma), bot)


def test_alternation_is_monotone(cpl, conj):
    # successive alternation stages only grow
    s = open_session(cpl, conj, Fuel(1, 12, 20_000))
    gamma = frozenset(
        [union_formula(s, "and(x1, x2)"), union_formula(s, "imp(x1, x3)")]
    )
    stage1 = set(gamma)
    stage1 |= h_closure(s, "left", gamma)
    stage1 |= h_closure(s, "right", gamma)
    stage2 = set(stage1)
    stage2 |= h_closure(s, "left", stage1)
    stage2 |= h_closure(s, "right", stage1)
    assert gamma <= stage1 <= stage2


def test_symmetry_on_corpus_queries(cpl, conj):
    rng = random.Random(5)
    fuel = Fuel(1, 12, 20_000)
    ab = open_session(cpl, conj, fuel)
    ba = open_session(conj, cpl, fuel)
    corpus = enumerate_formulas(ab.union_sig, 2, 2)
    for _ in range(12):
        gamma = rng.sample(corpus, 2)
        phi = rng.choice(corpus)
        va = fibred_derives(ab, gamma, phi)
        vb = fibred_derives(ba, gamma, phi)
        assert va.is_derived == vb.is_derived, (gamma, phi)


def test_conservation_left_pure_sample(cpl, conj):
    # whatever plain CPL derives from pure-CPL premises, the session derives
    rng = random.Random(7)
    fuel = Fuel(2, 12, 20_000)
    corpus = enumerate_formulas(cpl.sig, 3, 1)
    for _ in range(10):
        gamma = rng.sample(corpus, 2)
        plain = closure_bounded(cpl, gamma, fuel)
        reachable = sorted((plain & set(corpus)) - set(gamma), key=lambda x: x.sort_key)
        session = open_session(cpl, conj, fuel)
        for phi in reachable[:3]:
            assert fibred_derives(session, gamma, phi).is_derived, (gamma, phi)


def test_fibred_is_extension_of_left(cpl, conj):
    # weakness evidence: the standalone presentation is weaker than the
    # union presentation underlying the session
    merged = merge_presentations(cpl, conj)
    ev = weaker_than(cpl, merged, corpus_depth=2, fuel=Fuel(1, 12, 20_000))
    assert ev.status == "verified"


# -- a round ends after its left side once the goal is present


def full_round_derives(session, gamma, phi):
    """Reference alternation: every round runs both side closures."""
    current = set(gamma)
    if phi in current:
        return Derived(0)
    seeds_left = tuple(translate(to_side(session, "left"), phi).subformulas())
    seeds_right = tuple(translate(to_side(session, "right"), phi).subformulas())
    for round_no in range(1, session.fuel.max_closure_rounds + 1):
        grown = set(current)
        grown |= fibring._side_closure(session, "left", current, seeds_left)
        grown |= fibring._side_closure(session, "right", current, seeds_right)
        if phi in grown:
            return Derived(round_no)
        if len(grown) > session.fuel.max_set_size:
            raise CapExceeded(f"round {round_no}")
        if grown == current:
            break
        current = grown
    return NotDerivedWithin(session.fuel)


def counting_side_closures(monkeypatch):
    calls = []
    side_closure = fibring._side_closure

    def counted(session, side, gamma, seeds):
        calls.append(side)
        return side_closure(session, side, gamma, seeds)

    monkeypatch.setattr(fibring, "_side_closure", counted)
    return calls


def test_early_round_end_matches_full_rounds(cpl, conj, cold_memo, monkeypatch):
    # the alternation itself, which fibred_derives skips for a goal a sound
    # matrix separates
    calls = counting_side_closures(monkeypatch)
    fuel = Fuel(2, 10, 3000)
    corpus = enumerate_formulas(open_session(cpl, conj, fuel).union_sig, 2, 2)
    rng = random.Random(1)
    queries = [(rng.sample(corpus, 2), rng.choice(corpus)) for _ in range(12)]
    reused, reused_ref = open_session(cpl, conj, fuel), open_session(cpl, conj, fuel)
    answers = []
    full_calls = early_calls = 0
    for gamma, phi in queries:
        fresh, fresh_ref = open_session(cpl, conj, fuel), open_session(cpl, conj, fuel)
        start = len(calls)
        expected = full_round_derives(fresh_ref, gamma, phi)
        middle = len(calls)
        got = fibring._alternate(fresh, set(gamma), phi)
        full_calls += middle - start
        early_calls += len(calls) - middle
        assert got == expected, (gamma, phi)
        assert dump_session(fresh) == dump_session(fresh_ref), (gamma, phi)
        assert fibring._alternate(reused, set(gamma), phi) == full_round_derives(reused_ref, gamma, phi)
        answers.append(got.depth if got.is_derived else None)
    # dumping freezes the interning, so the reused sessions are dumped once
    assert dump_session(reused) == dump_session(reused_ref)
    assert {1, 2, None} <= set(answers)
    assert early_calls < full_calls


def test_the_alternation_stops_at_its_fixpoint(conj, cold_memo, monkeypatch):
    # round 1 leaves a set that both side closures keep as it is, so round
    # 2 ends at the fixpoint and rounds 3 and 4 never run; fibred_derives
    # gives the same answer without the alternation, since a sound matrix
    # separates x2 from and(x1, bot)
    calls = counting_side_closures(monkeypatch)
    s = open_session(presets.rule_free(), conj, Fuel(4, 12, 8000))
    gamma, phi = {union_formula(s, "and(x1, bot)")}, union_formula(s, "x2")
    verdict = fibring._alternate(s, gamma, phi)
    assert verdict == NotDerivedWithin(s.fuel)
    assert calls == ["left", "right"] * 2
    assert fibred_derives(open_session(presets.rule_free(), conj, s.fuel), gamma, phi) == verdict
    assert calls == ["left", "right"] * 2


def readme_query(cpl, conj, fuel=SESSION_FUEL, session=None):
    """The README example, {and(x1, x2), imp(x1, x3)} |- x3, asked of the
    given session or of a fresh one."""
    s = open_session(cpl, conj, fuel) if session is None else session
    gamma = [union_formula(s, "and(x1, x2)"), union_formula(s, "imp(x1, x3)")]
    return fibred_derives(s, gamma, union_formula(s, "x3"))


def test_readme_example_skips_the_last_right_side(cpl, conj, cold_memo, monkeypatch):
    calls = counting_side_closures(monkeypatch)
    assert readme_query(cpl, conj, Fuel(2, 12, 8000)) == Derived(2)
    assert calls == ["left", "right", "left"]
    # asked again, in a fresh session, it is answered from the query memo
    assert readme_query(cpl, conj, Fuel(2, 12, 8000)) == Derived(2)
    assert calls == ["left", "right", "left"]


def test_early_round_end_still_translates_the_right_side(cpl, conj):
    # the left side alone derives x2, but the right side's translation of
    # imp(x1, x2) needs a new interning slot, which a frozen session refuses
    s = open_session(cpl, conj, SESSION_FUEL)
    dump_session(s)
    gamma = [union_formula(s, "x1"), union_formula(s, "imp(x1, x2)")]
    with pytest.raises(UnknownInternIndex):
        fibred_derives(s, gamma, union_formula(s, "x2"))


def query_entries(memo):
    """The memo's fibring query entries."""
    return [key for key in memo.table if key[0] is fibred_derives]


def test_readme_example_from_the_closure_memo(cpl, conj, cold_memo, monkeypatch):
    # fresh sessions: the second one is answered from its query entry, and
    # the memo stays as the first run left it
    cold, warm = open_session(cpl, conj, SESSION_FUEL), open_session(cpl, conj, SESSION_FUEL)
    assert readme_query(cpl, conj, session=cold) == Derived(2)
    stored = dict(cold_memo.table)
    assert len(stored) > 1 and len(query_entries(cold_memo)) == 1
    assert readme_query(cpl, conj, session=warm) == Derived(2)
    assert cold_memo.table == stored
    assert dump_session(cold) == dump_session(warm)
    # reused sessions, each asked twice: the second ask starts from the
    # entries the first registered, so it is a query of its own
    memo = Memo(MEMO_SLOTS)
    monkeypatch.setattr(syntax, "MEMO", memo)
    cold, warm = open_session(cpl, conj, SESSION_FUEL), open_session(cpl, conj, SESSION_FUEL)
    answers = [readme_query(cpl, conj, session=s) for s in (cold, cold, warm, warm)]
    assert answers == [Derived(2)] * 4
    assert len(query_entries(memo)) == 2
    assert dump_session(cold) == dump_session(warm)


def test_a_repeated_side_closure_is_answered_from_the_memo(cpl, conj, cold_memo, monkeypatch):
    # a repeated query, in fresh sessions, runs none of its side closures
    # and maps nothing back
    fuel = Fuel(2, 10, 3000)
    corpus = enumerate_formulas(open_session(cpl, conj, fuel).union_sig, 2, 2)
    rng = random.Random(3)
    queries = [(rng.sample(corpus, 2), rng.choice(corpus)) for _ in range(8)]

    def run():
        sessions = [open_session(cpl, conj, fuel) for _ in queries]
        verdicts = [fibred_derives(s, gamma, phi) for s, (gamma, phi) in zip(sessions, queries)]
        return verdicts, [dump_session(s) for s in sessions]

    cold = run()
    stored = dict(cold_memo.table)
    calls = counting_side_closures(monkeypatch)
    mapped_back = recorded_back_translations(monkeypatch)
    assert run() == cold
    assert calls == mapped_back == []
    assert cold_memo.table == stored


def test_a_side_memo_hit_raises_what_a_fresh_call_raises(cpl, conj, cold_memo):
    # the left side alone derives x2; the right side's translation then
    # registers imp(x1, x2), which a frozen session refuses
    def ask(s):
        gamma = [union_formula(s, "x1"), union_formula(s, "imp(x1, x2)")]
        return fibred_derives(s, gamma, union_formula(s, "x2"))

    def frozen():
        s = open_session(cpl, conj, SESSION_FUEL)
        dump_session(s)
        return s

    with pytest.raises(UnknownInternIndex) as cold:
        ask(frozen())
    assert not query_entries(cold_memo)
    assert ask(open_session(cpl, conj, SESSION_FUEL)) == Derived(1)
    assert len(query_entries(cold_memo)) == 1
    with pytest.raises(UnknownInternIndex) as warm:
        ask(frozen())
    assert str(warm.value) == str(cold.value)
    # a run that raises is not remembered, so every ask raises again: one
    # premise set over the set cap, one combined set that outgrows it (on
    # a goal no sound matrix separates, so the alternation runs)
    tight = Fuel(2, 14, 2)
    over_cap = [union_formula(open_session(cpl, conj, tight), text) for text in ("x1", "x2", "and(x1, x2)")]
    grows = [union_formula(open_session(cpl, conj, SESSION_FUEL), text) for text in ("x1", "x2")]
    for fuel, gamma, phi in ((tight, over_cap, "x3"), (Fuel(2, 14, 40), grows, "imp(bot, bot)")):
        for _ in range(2):
            s = open_session(cpl, conj, fuel)
            with pytest.raises(CapExceeded):
                fibred_derives(s, gamma, union_formula(s, phi))
    assert len(query_entries(cold_memo)) == 1


def test_a_side_memo_miss_checks_its_premises_once(cpl, conj, cold_memo, monkeypatch):
    # a query memo miss checks each side closure's premises once; a hit
    # checks none
    checks = []
    check = consequence._check_gamma

    def counted(cal, gamma, fuel):
        checks.append(1)
        return check(cal, gamma, fuel)

    monkeypatch.setattr(consequence, "_check_gamma", counted)
    calls = counting_side_closures(monkeypatch)
    for _ in range(2):
        assert readme_query(cpl, conj) == Derived(2)
        assert len(checks) == len(calls) == 3


def test_a_side_result_is_keyed_by_the_interning_too(cpl, conj, cold_memo):
    # the same translated premises, but once x2 has a preimage in slot 1
    plain, grown = open_session(cpl, conj, SESSION_FUEL), open_session(cpl, conj, SESSION_FUEL)
    translate(to_side(grown, "left"), union_formula(grown, "and(x1, x1)"))
    gamma = [union_formula(plain, "imp(x1, x2)")]
    got = [h_closure(s, "left", gamma) for s in (plain, grown)]
    assert got[0] != got[1]
    for s, out in zip((plain, grown), got):
        assert out == reference_side_closure(s, "left", gamma, ())


def test_side_results_stay_within_the_slot_budget(cpl, conj, monkeypatch):
    # closures, queries, the union signature and the union's matrices
    # share one slot budget, and a query entry is evicted like any other;
    # the queries are ones that run the alternation: their goal is not a
    # premise and no sound matrix separates it
    memo = Memo(3000)
    monkeypatch.setattr(syntax, "MEMO", memo)
    fuel = Fuel(2, 10, 3000)
    corpus = enumerate_formulas(open_session(cpl, conj, fuel).union_sig, 2, 2)
    union = merge_presentations(cpl, conj)
    rng = random.Random(4)
    stored = set()
    queries = []
    while len(queries) < 10:
        gamma, phi = rng.sample(corpus, 2), rng.choice(corpus)
        if phi not in gamma and consequence.separating_matrix(union, gamma, phi) is None:
            queries.append((gamma, phi))
    for gamma, phi in queries:
        fibred_derives(open_session(cpl, conj, fuel), gamma, phi)
        assert memo.slots == memo_slots(memo) <= 3000
        stored.update(query_entries(memo))
    assert 0 < len(query_entries(memo)) < len(stored)


def outcome(session, gamma, phi):
    """A query's verdict, or the type and message of what it raised."""
    try:
        return fibred_derives(session, gamma, phi)
    except OntoweaveError as exc:
        return type(exc), str(exc)


def test_a_memo_answer_equals_a_cold_run(cpl, conj, cold_memo, monkeypatch):
    fuel = Fuel(2, 10, 3000)
    corpus = enumerate_formulas(open_session(cpl, conj, fuel).union_sig, 2, 2)
    rng = random.Random(6)
    queries = [(rng.sample(corpus, 2), rng.choice(corpus)) for _ in range(12)]
    calls = counting_side_closures(monkeypatch)

    def cold_run(session, gamma, phi):
        with monkeypatch.context() as m:
            m.setattr(syntax, "MEMO", Memo(MEMO_SLOTS))
            return outcome(session, gamma, phi)

    def frozen():
        s = open_session(cpl, conj, fuel)
        dump_session(s)
        return s

    # one reused session fills the memo with the queries in order, and
    # fresh sessions with each query from no entries; a run that raised is
    # not remembered, so only the others are answered from the memo below
    filler = open_session(cpl, conj, fuel)
    stored = []
    for gamma, phi in queries:
        from_reused = outcome(filler, gamma, phi)
        from_fresh = outcome(open_session(cpl, conj, fuel), gamma, phi)
        stored.append((not isinstance(from_fresh, tuple), not isinstance(from_reused, tuple)))
    reused, reused_cold = open_session(cpl, conj, fuel), open_session(cpl, conj, fuel)
    answers = []
    for (gamma, phi), (fresh_hit, reused_hit) in zip(queries, stored):
        for make in (lambda: open_session(cpl, conj, fuel), frozen):
            s, s_cold = make(), make()
            ran = len(calls)
            answers.append(outcome(s, gamma, phi))
            assert (len(calls) == ran) == fresh_hit, (gamma, phi)
            assert answers[-1] == cold_run(s_cold, gamma, phi), (gamma, phi)
            assert dump_session(s) == dump_session(s_cold), (gamma, phi)
        ran = len(calls)
        got = outcome(reused, gamma, phi)
        assert (len(calls) == ran) == reused_hit, (gamma, phi)
        assert got == cold_run(reused_cold, gamma, phi), (gamma, phi)
    assert dump_session(reused) == dump_session(reused_cold) == dump_session(filler)
    verdicts = Counter(type(a).__name__ for a in answers)
    assert verdicts["Derived"] and verdicts["NotDerivedWithin"] and verdicts["tuple"]


# -- a goal a sound matrix of the union separates is answered without the
# alternation, which could never derive it


def counting_matrix_checks(monkeypatch):
    calls = []
    check = fibring.separating_matrix

    def counted(cal, gamma, phi):
        calls.append(cal)
        return check(cal, gamma, phi)

    monkeypatch.setattr(fibring, "separating_matrix", counted)
    return calls


def test_a_separated_query_runs_no_side_closure_and_is_remembered(cpl, conj, cold_memo, monkeypatch):
    calls = counting_side_closures(monkeypatch)
    checks = counting_matrix_checks(monkeypatch)
    fuel = Fuel(2, 14, 40)
    # asked twice, in fresh sessions: the second ask is a memo hit
    for _ in range(2):
        s = open_session(cpl, conj, fuel)
        gamma = [union_formula(s, "x1"), union_formula(s, "x2")]
        assert fibred_derives(s, gamma, union_formula(s, "bot")) == NotDerivedWithin(fuel)
        assert calls == [] and checks == [merge_presentations(cpl, conj)]
        (key,) = query_entries(cold_memo)
        assert cold_memo.table[key][0] == (NotDerivedWithin(fuel), ())
        assert dump_session(s) == dump_session(open_session(cpl, conj, fuel))


def test_a_premise_set_over_the_cap_raises_before_any_matrix_check(cpl, conj, cold_memo, monkeypatch):
    checks = counting_matrix_checks(monkeypatch)
    s = open_session(cpl, conj, Fuel(2, 14, 2))
    gamma = [union_formula(s, text) for text in ("x1", "x2", "x3")]
    with pytest.raises(CapExceeded, match="^premise set larger than the set cap 2$"):
        fibred_derives(s, gamma, union_formula(s, "bot"))
    assert checks == [] and not query_entries(cold_memo)


def alternation_outcome(session, gamma, phi):
    """The alternation's verdict, with no matrix check before it, or the
    type and message of what it raised."""
    try:
        return fibring._alternate(session, set(gamma), phi)
    except OntoweaveError as exc:
        return type(exc), str(exc)


def designated_wherever(cal, gamma, psi):
    """Whether every sound matrix of cal designates psi under every
    valuation that designates gamma; at any number of atoms, where
    separating_matrix gives up past MATRIX_CAP valuations."""
    for matrix in consequence.sound_matrices(cal):
        tables = dict(matrix)
        atoms, stack = set(), [*gamma, psi]
        while stack:
            node = stack.pop()
            if node.var is None and node.head in tables:
                stack.extend(node.args)
            else:
                atoms.add(node)
        if consequence._separates(tables, sorted(atoms, key=by_sort_key), gamma, psi):
            return False
    return True


_DEPTH_2 = {
    name: enumerate_formulas(getattr(presets, name)().sig, 2, 2)
    for name in ("cpl", "implication_fragment", "conj")
}


@st.composite
def _fibred_queries(draw):
    """Two presentations and 0-2 premises and a goal from the depth-2
    corpora of both."""
    pair = draw(st.sampled_from(["cpl+conj", "implication_fragment+conj", "cpl+cpl", "oracle"]))
    if pair == "oracle":
        left, right = draw(_oracle_calculi()), draw(_oracle_calculi())
        corpus = enumerate_formulas(left.sig, 2, 2)
    else:
        names = pair.split("+")
        left, right = (getattr(presets, name)() for name in names)
        corpus = sorted({phi for name in names for phi in _DEPTH_2[name]}, key=by_sort_key)
    formulas = st.sampled_from(corpus)
    return left, right, draw(st.lists(formulas, max_size=2)), draw(formulas)


def _premises_x1_x2(goal):
    """cpl and conj with the query {x1, x2} |- goal."""
    cpl, conj = presets.cpl(), presets.conj()
    u = lambda text: parse_formula(text, signature_union(cpl.sig, conj.sig))
    return cpl, conj, [u("x1"), u("x2")], u(goal)


@settings(max_examples=80)
@given(_fibred_queries(), st.builds(Fuel, st.integers(1, 2), st.integers(4, 12), st.sampled_from([8, 24, 64])))
# the alternation outgrows the set cap on a separated goal and on one that
# is not
@example(_premises_x1_x2("bot"), Fuel(2, 14, 40))
@example(_premises_x1_x2("imp(bot, bot)"), Fuel(2, 14, 40))
def test_a_goal_the_union_separates_is_never_fibred_derived(query, fuel):
    left, right, gamma, phi = query
    union = merge_presentations(left, right)
    separated = consequence.separating_matrix(union, gamma, phi) is not None
    alternated = alternation_outcome(open_session(left, right, fuel), gamma, phi)
    ended = alternated[0] if isinstance(alternated, tuple) else type(alternated)
    event(f"separated={separated} alternation={ended.__name__}")
    if separated:
        # the alternation may outgrow the set cap, but never derives the goal
        assert not isinstance(alternated, Derived)
        assert fibred_derives(open_session(left, right, fuel), gamma, phi) == NotDerivedWithin(fuel)
    else:
        expected = Derived(0) if phi in gamma else alternated
        assert outcome(open_session(left, right, fuel), gamma, phi) == expected
    # every side closure member is designated wherever the premises are
    s = open_session(left, right, fuel)
    for side in ("left", "right"):
        for psi in h_closure(s, side, gamma):
            assert designated_wherever(union, gamma, psi), (side, psi.text)


# -- session persistence


def test_dump_load_bit_exact(cpl, conj):
    s = open_session(cpl, conj, SESSION_FUEL)
    gamma = [union_formula(s, "and(x1, imp(x1, x1))")]
    h_closure(s, "right", gamma)  # populate interning
    text = dump_session(s)
    reloaded = load_session(text, cpl, conj)
    assert dump_session(reloaded) == text
    assert reloaded.fuel == s.fuel
    assert reloaded.interning.entries == s.interning.entries


def test_a_loaded_session_back_translates_through_the_loaded_table(cpl, conj):
    s = open_session(cpl, conj, SESSION_FUEL)
    first = [union_formula(s, "and(x1, imp(x1, x1))")]
    second = [union_formula(s, "imp(and(x2, x1), x1)")]
    h_closure(s, "right", first)
    expected = {side: h_closure(s, side, second) for side in ("left", "right")}
    reloaded = load_session(dump_session(s), cpl, conj)
    assert to_side(reloaded, "left").interning is to_side(reloaded, "right").interning is reloaded.interning
    for side in ("right", "left"):
        assert h_closure(reloaded, side, second) == expected[side]
    # every slot the closures needed was in the loaded table already
    assert reloaded.interning.entries == s.interning.entries


def test_dump_freezes_the_session(cpl, conj):
    s = open_session(cpl, conj, SESSION_FUEL)
    dump_session(s)
    # registering a new foreign subtree must fail once the table is frozen
    with pytest.raises(UnknownInternIndex):
        translate(to_side(s, "left"), union_formula(s, "and(bot, bot)"))


def test_load_session_rejects_garbage(cpl, conj):
    with pytest.raises(FormatError, match="^not a session dump$"):
        load_session("not a dump", cpl, conj)
    with pytest.raises(FormatError, match="^corrupt session dump: unexpected end of input$"):
        load_session("session\nfuel\t1\t2\n", cpl, conj)
    header = dump_session(open_session(cpl, conj, SESSION_FUEL))
    # a lone token, an undeclared symbol, an index out of order, a signed
    # index
    for intern in ("garbage", "1\tzz", "5\tbot", "+1\tbot"):
        with pytest.raises(FormatError, match="^corrupt session dump: "):
            load_session(header + intern + "\n", cpl, conj)
    # every number is the lexer's ASCII digit token, where int() would read
    # these as 12, 2 and 2: 1_2 lexes as the number 1 and the name _2, and
    # neither + nor a non-ASCII digit starts a token
    fuel_line = "fuel\t2\t14\t20000\n"
    assert fuel_line in header
    refusals = {
        "1_2": "expected a number, found '_2'",
        "+2": "bad token at '+2\\t14\\t20000\\n'",
        "\u0662": "bad token at '\u0662\\t14\\t20000\\nu'",
        # more digits than int() converts
        "1" * 5000: "number with 5000 digits is too long",
    }
    for rounds, message in refusals.items():
        bad = header.replace(fuel_line, f"fuel\t{rounds}\t14\t20000\n")
        with pytest.raises(FormatError, match="^" + re.escape(f"corrupt session dump: {message}") + "$"):
            load_session(bad, cpl, conj)


def test_load_session_checks_union(cpl, conj):
    s = open_session(cpl, conj, SESSION_FUEL)
    text = dump_session(s)
    with pytest.raises(FormatError):
        load_session(text, cpl, cpl)


def test_a_warm_query_adds_no_node_and_a_dropped_session_is_collected(cpl, conj, monkeypatch):
    fuel = Fuel(2, 10, 3000)

    def query():
        s = open_session(cpl, conj, fuel)
        assert readme_query(cpl, conj, session=s) == Derived(2)
        return s

    query()
    nodes = len(syntax._INTERN)
    # the query memo answers: nothing is mapped back
    calls = recorded_back_translations(monkeypatch)
    s = query()
    assert len(syntax._INTERN) == nodes
    assert calls == []
    state = [weakref.ref(s), weakref.ref(s.interning)]
    del s
    gc.collect()
    assert [ref() for ref in state] == [None, None]


# -- side closures build only the images that can fit the formula cap


def reference_side_closure(session, side, gamma, seeds):
    """The side closure that maps back every member it can and keeps an
    image that fits the formula cap or is a premise."""
    cal, t = getattr(session, side), to_side(session, side)
    given = set(gamma)
    translated = fibring._translate_given(t, given)
    closed = closure_bounded(cal, translated, session.fuel, extra_pool=seeds)
    out = set()
    for psi in closed:
        if is_back_translatable(t, psi):
            image = substitute_back(t, psi)
            if image.size <= session.fuel.max_formula_size or image in given:
                out.add(image)
    return frozenset(out)


def image_bound(t, psi):
    """psi's size plus, for each distinct registered even variable, the
    growth of expanding it once."""
    interning = t.interning
    return psi.size + sum(
        interning.formula_of(v // 2).size - 1
        for v in psi.variables
        if v % 2 == 0 and interning.has_index(v // 2)
    )


_CPL, _CONJ = presets.cpl(), presets.conj()
_UNION = signature_union(_CPL.sig, _CONJ.sig)
_HEADS = [Symbol("and", 2), Symbol("imp", 2), Symbol("not", 1)]
_COMBINED = st.recursive(
    st.sampled_from(enumerate_formulas(_CPL.sig, 2, 2) + enumerate_formulas(_CONJ.sig, 2, 2)),
    lambda children: st.one_of(
        [
            st.tuples(*[children] * sym.arity).map(lambda args, sym=sym: apply_symbol(sym, args))
            for sym in _HEADS
        ]
    ),
    max_leaves=4,
)
_BOUND_FUEL = Fuel(2, 8, 3000)


@settings(max_examples=40)
@given(
    st.lists(_COMBINED, min_size=1, max_size=3),
    _COMBINED,
    st.lists(_COMBINED, min_size=2, max_size=2),
)
def test_side_closures_match_the_build_every_image_reference(gamma, phi, extra):
    # premises may be bigger than the formula cap; between alternation
    # rounds the shared interning grows by an extra foreign subtree
    s, ref = open_session(_CPL, _CONJ, _BOUND_FUEL), open_session(_CPL, _CONJ, _BOUND_FUEL)
    for side in ("left", "right"):
        assert h_closure(s, side, gamma) == reference_side_closure(ref, side, gamma, ())
        assert s.interning.entries == ref.interning.entries
    seeds = {side: (translate(to_side(s, side), phi),) for side in ("left", "right")}
    ref_seeds = {side: (translate(to_side(ref, side), phi),) for side in ("left", "right")}
    current = set(gamma)
    for grow in extra:
        grown = set(current)
        for side in ("left", "right"):
            got = fibring._side_closure(s, side, current, seeds[side])
            assert got == reference_side_closure(ref, side, current, ref_seeds[side]), side
            assert s.interning.entries == ref.interning.entries
            grown |= got
        if len(grown) > _BOUND_FUEL.max_set_size:
            break
        translate(to_side(s, "left"), grow)
        translate(to_side(ref, "left"), grow)
        assert s.interning.entries == ref.interning.entries
        current = grown


def recorded_back_translations(monkeypatch):
    """Every member _side_closure hands to substitute_back, with its bound
    over the interning of that moment."""
    calls = []

    def recorded(t, psi):
        calls.append((psi, image_bound(t, psi)))
        return substitute_back(t, psi)

    monkeypatch.setattr(fibring, "substitute_back", recorded)
    return calls


def test_a_member_whose_bound_fits_but_whose_image_does_not_is_dropped(cold_memo, monkeypatch):
    # x2 stands for and(x1, x3) on the left side, so imp(x2, x2) has a bound
    # of 3 + 2 = 5 but an image of 7 nodes: a repeated even variable expands
    # once per occurrence
    sig = make_signature([("imp", 2)])
    doubling = CalculusPresentation(
        sig, rules=(Rule("D", (svar(1),), parse_formula("imp(x1, x1)", sig)),)
    )
    premise = parse_formula("and(x1, x3)", _UNION)
    doubled = parse_formula("imp(and(x1, x3), and(x1, x3))", _UNION)
    for cap, kept in ((4, False), (5, False), (6, False), (7, True)):
        s = open_session(doubling, _CONJ, Fuel(1, cap, 100))
        calls = recorded_back_translations(monkeypatch)
        out = h_closure(s, "left", [premise])
        assert out == ({premise, doubled} if kept else {premise}), cap
        built = [psi.text for psi, _ in calls]
        assert ("imp(x2, x2)" in built) == (cap >= 5), cap


def test_a_premise_bigger_than_the_cap_comes_back(cpl, conj):
    s = open_session(cpl, conj, Fuel(1, 5, 2000))
    big = union_formula(s, "and(imp(x1, x2), imp(x2, and(x1, x1)))")
    assert big.size > s.fuel.max_formula_size
    for side in ("left", "right"):
        assert big in h_closure(s, side, [big]), side


def test_members_without_a_preimage_never_reach_substitute_back(cpl, conj, cold_memo, monkeypatch):
    # the left side's closure holds members over raw x1 and over x4, whose
    # interning slot 2 is not registered; neither is ever mapped back
    s = open_session(cpl, conj, Fuel(1, 5, 2000))
    seen = []
    closure = fibring.closure_bounded

    def recorded(*args, **kwargs):
        seen.append(closure(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(fibring, "closure_bounded", recorded)
    calls = recorded_back_translations(monkeypatch)
    fibring._side_closure(s, "left", [union_formula(s, "and(x1, x2)")], (svar(4),))
    (closed,) = seen
    assert len(s.interning) == 1
    assert any(1 in psi.variables for psi in closed)
    assert any(4 in psi.variables for psi in closed)
    assert calls
    for psi, _ in calls:
        assert 1 not in psi.variables and 4 not in psi.variables, psi.text


def test_the_readme_query_builds_no_image_that_cannot_fit(cpl, conj, cold_memo, monkeypatch):
    fuel = Fuel(2, 10, 3000)
    s = open_session(cpl, conj, fuel)
    over = []
    closure = fibring.closure_bounded

    def counted(cal, gamma, fuel, **kwargs):
        closed = closure(cal, gamma, fuel, **kwargs)
        t = to_side(s, "left" if cal is cpl else "right")
        over.extend(psi for psi in closed if image_bound(t, psi) > fuel.max_formula_size)
        return closed

    monkeypatch.setattr(fibring, "closure_bounded", counted)
    calls = recorded_back_translations(monkeypatch)
    gamma = [union_formula(s, "and(x1, x2)"), union_formula(s, "imp(x1, x3)")]
    assert fibred_derives(s, gamma, union_formula(s, "x3")) == Derived(2)
    assert over and calls
    assert [psi.text for psi, bound in calls if bound > fuel.max_formula_size] == []


def test_every_member_whose_bound_fits_is_checked_once(cpl, conj, cold_memo, monkeypatch):
    # --trace 1's morphisms.back.translatable_ratio counts these checks
    fuel = Fuel(2, 10, 3000)
    s = open_session(cpl, conj, fuel)
    fitting, checked = [], []
    closure, check = fibring.closure_bounded, fibring.is_back_translatable

    def counted(cal, *args, **kwargs):
        closed = closure(cal, *args, **kwargs)
        t = to_side(s, "left" if cal is cpl else "right")
        fitting.extend(psi for psi in closed if image_bound(t, psi) <= fuel.max_formula_size)
        return closed

    def recorded(t, psi):
        checked.append(psi)
        return check(t, psi)

    monkeypatch.setattr(fibring, "closure_bounded", counted)
    monkeypatch.setattr(fibring, "is_back_translatable", recorded)
    gamma = [union_formula(s, "and(x1, x2)"), union_formula(s, "imp(x1, x3)")]
    assert fibred_derives(s, gamma, union_formula(s, "x3")) == Derived(2)
    assert len(checked) == 512
    assert Counter(checked) == Counter(fitting)
