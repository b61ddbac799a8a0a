"""The one memo: closures, fibring queries, signature unions and sound
matrices share one slot budget, and every answer from it is a cold one."""

import random

from ontoweave import syntax
from ontoweave.consequence import Fuel, closure_bounded, sound_matrices, transfer_evidence
from ontoweave.errors import OntoweaveError
from ontoweave.fibring import dump_session, fibred_derives, open_session
from ontoweave.syntax import MEMO_SLOTS, Memo, enumerate_formulas, make_signature, signature_union

from conftest import memo_slots

BUDGET = 2500
FUEL = Fuel(2, 10, 3000)


def test_every_kind_of_entry_shares_one_budget_and_answers_as_a_cold_run(
    cpl, conj, imp_fragment, rule_free, monkeypatch
):
    memo = Memo(BUDGET)
    monkeypatch.setattr(syntax, "MEMO", memo)

    def cold(call):
        with monkeypatch.context() as m:
            m.setattr(syntax, "MEMO", Memo(MEMO_SLOTS))
            return call()

    def answer(session, gamma, phi):
        """A query's verdict, or the type and message of what it raised."""
        try:
            return fibred_derives(session, gamma, phi)
        except OntoweaveError as exc:
            return type(exc), str(exc)

    def frozen():
        s = open_session(cpl, conj, FUEL)
        dump_session(s)
        return s

    rng = random.Random(8)
    union = open_session(cpl, conj, FUEL).union_sig
    corpus = enumerate_formulas(union, 2, 2)
    catalogue = [(rng.sample(corpus, 2), rng.choice(corpus)) for _ in range(6)]
    bot = make_signature([("bot", 0)])
    signatures = [cpl.sig, conj.sig, imp_fragment.sig, bot, union]
    scans = [(imp_fragment, cpl), (cpl, rule_free), (conj, conj)]
    # (warm, cold) session pairs, each asked in turn; a reused session is
    # dumped only at the end, because dumping freezes it
    sessions = {"fresh": [], "frozen": [], "reused": []}
    kinds, held = set(), set()
    for _ in range(60):
        kind = rng.choice(["scan", "fresh", "reused", "frozen", "union"])
        kinds.add(kind)
        if kind == "scan":
            src, dst = rng.choice(scans)
            scan = lambda: transfer_evidence("scan", src, dst, lambda phi: phi, 1, FUEL)
            assert scan() == cold(scan)
        elif kind in sessions:
            pairs = sessions[kind]
            if kind != "reused" or not pairs or rng.random() < 0.3:
                make = frozen if kind == "frozen" else (lambda: open_session(cpl, conj, FUEL))
                pairs.append((make(), make()))
            warm_session, cold_session = pairs[-1]
            gamma, phi = rng.choice(catalogue)
            assert answer(warm_session, gamma, phi) == cold(lambda: answer(cold_session, gamma, phi))
        else:
            a, b = rng.choice(signatures), rng.choice(signatures)
            assert signature_union(a, b) is cold(lambda: signature_union(a, b))
        assert memo.slots == memo_slots(memo) <= BUDGET
        held.update(key[0] for key in memo.table)
    for warm_session, cold_session in sum(sessions.values(), []):
        assert dump_session(warm_session) == dump_session(cold_session)
    assert kinds == {"scan", "fresh", "reused", "frozen", "union"}
    # a fibring query asks the union presentation's matrices first
    assert held == {closure_bounded, fibred_derives, signature_union, sound_matrices}
