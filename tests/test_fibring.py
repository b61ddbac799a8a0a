"""Fibring sessions, side closures, and the alternating fixpoint."""

import random

import pytest

from ontoweave import fibring
from ontoweave.consequence import Derived, Fuel, NotDerivedWithin, closure_bounded, derives, weaker_than
from ontoweave.errors import CapExceeded, FormatError, LanguageError, UnknownInternIndex
from ontoweave.fibring import (
    dump_session,
    fibred_derives,
    h_closure,
    load_session,
    open_session,
)
from ontoweave.morphisms import translate
from ontoweave.syntax import enumerate_formulas, make_signature, parse_formula, signature_union
from ontoweave import presets

SESSION_FUEL = Fuel(2, 14, 20_000)


def union_formula(session, text):
    return parse_formula(text, session.union_sig)


def test_open_session_idempotent_union(cpl):
    s = open_session(cpl, cpl, SESSION_FUEL)
    assert s.union_sig == cpl.sig


def test_open_session_union_levels(cpl, conj):
    s = open_session(cpl, conj, SESSION_FUEL)
    assert s.union_sig == signature_union(cpl.sig, conj.sig)
    assert s.t_left.interning is s.t_right.interning


def test_open_session_empty_calculi():
    empty = presets.rule_free(make_signature([]))
    s = open_session(empty, empty, SESSION_FUEL)
    assert s.union_sig.is_empty()


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
    # the goal is unreachable from bare premises, so growth hits the cap
    s = open_session(cpl, conj, Fuel(2, 14, 40))
    gamma = [union_formula(s, "x1"), union_formula(s, "x2")]
    with pytest.raises(CapExceeded):
        fibred_derives(s, gamma, union_formula(s, "bot"))


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
    from ontoweave.ontology import merge_presentations

    merged = merge_presentations(cpl, conj)
    ev = weaker_than(cpl, merged, corpus_depth=2, fuel=Fuel(1, 12, 20_000))
    assert ev.status == "verified"


# -- a round ends after its left side once the goal is present


def full_round_derives(session, gamma, phi):
    """Reference alternation: every round runs both side closures."""
    current = set(gamma)
    if phi in current:
        return Derived(0)
    seeds_left = tuple(translate(session.t_left, phi).subformulas())
    seeds_right = tuple(translate(session.t_right, phi).subformulas())
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


def test_early_round_end_matches_full_rounds(cpl, conj, monkeypatch):
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
        got = fibred_derives(fresh, gamma, phi)
        full_calls += middle - start
        early_calls += len(calls) - middle
        assert got == expected, (gamma, phi)
        assert dump_session(fresh) == dump_session(fresh_ref), (gamma, phi)
        assert fibred_derives(reused, gamma, phi) == full_round_derives(reused_ref, gamma, phi)
        answers.append(got.depth if got.is_derived else None)
    # dumping freezes the interning, so the reused sessions are dumped once
    assert dump_session(reused) == dump_session(reused_ref)
    assert {1, 2, None} <= set(answers)
    assert early_calls < full_calls


def test_readme_example_skips_the_last_right_side(cpl, conj, monkeypatch):
    calls = counting_side_closures(monkeypatch)
    s = open_session(cpl, conj, Fuel(2, 12, 8000))
    gamma = [union_formula(s, "and(x1, x2)"), union_formula(s, "imp(x1, x3)")]
    assert fibred_derives(s, gamma, union_formula(s, "x3")) == Derived(2)
    assert calls == ["left", "right", "left"]


def test_early_round_end_still_translates_the_right_side(cpl, conj):
    # the left side alone derives x2, but the right side's translation of
    # imp(x1, x2) needs a new interning slot, which a frozen session refuses
    s = open_session(cpl, conj, SESSION_FUEL)
    dump_session(s)
    gamma = [union_formula(s, "x1"), union_formula(s, "imp(x1, x2)")]
    with pytest.raises(UnknownInternIndex):
        fibred_derives(s, gamma, union_formula(s, "x2"))


# -- session persistence


def test_dump_load_bit_exact(cpl, conj):
    s = open_session(cpl, conj, SESSION_FUEL)
    gamma = [union_formula(s, "and(x1, imp(x1, x1))")]
    h_closure(s, "right", gamma)  # populate interning
    text = dump_session(s)
    reloaded = load_session(text, cpl, conj)
    assert dump_session(reloaded) == text
    assert reloaded.fuel == s.fuel
    assert reloaded.t_left.interning == s.t_left.interning


def test_dump_freezes_the_session(cpl, conj):
    s = open_session(cpl, conj, SESSION_FUEL)
    dump_session(s)
    # registering a new foreign subtree must fail once the table is frozen
    with pytest.raises(UnknownInternIndex):
        translate(s.t_left, union_formula(s, "and(bot, bot)"))


def test_load_session_rejects_garbage(cpl, conj):
    with pytest.raises(FormatError):
        load_session("not a dump", cpl, conj)
    with pytest.raises(FormatError):
        load_session("session\nfuel\t1\t2\n", cpl, conj)


def test_load_session_checks_union(cpl, conj):
    s = open_session(cpl, conj, SESSION_FUEL)
    text = dump_session(s)
    with pytest.raises(FormatError):
        load_session(text, cpl, cpl)
