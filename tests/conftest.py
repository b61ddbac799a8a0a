"""Shared fixtures: standard calculi, fuels, small graph builders, and
exact deciders for the presets' logics."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import settings

from ontoweave import presets, syntax
from ontoweave.consequence import CalculusPresentation, Fuel, Rule, closure_bounded, sound_matrices
from ontoweave.fibring import fibred_derives
from ontoweave.ontology import Ontology
from ontoweave.syntax import MEMO_SLOTS, Memo, make_signature, parse_formula, signature_union

# Property tests draw the same examples on every run and have no deadline,
# so a slow shared host cannot turn them into timing failures.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def cpl():
    return presets.cpl()


@pytest.fixture(scope="session")
def conj():
    return presets.conj()


@pytest.fixture(scope="session")
def imp_fragment():
    return presets.implication_fragment()


@pytest.fixture(scope="session")
def rule_free():
    return presets.rule_free()


@pytest.fixture(scope="session")
def fuel():
    """Workhorse fuel: enough for corpus-scale derivations, fast."""
    return Fuel(max_closure_rounds=3, max_formula_size=24, max_set_size=50_000)


@pytest.fixture(scope="session")
def quick_fuel():
    return Fuel(max_closure_rounds=2, max_formula_size=14, max_set_size=20_000)


@pytest.fixture(scope="session")
def link_fuel():
    """Small fuel for link checkers inside graph fixtures."""
    return Fuel(max_closure_rounds=1, max_formula_size=12, max_set_size=4_000)


@pytest.fixture
def cold_memo(monkeypatch):
    """An empty memo with the real budget in place of the shared one."""
    memo = Memo(MEMO_SLOTS)
    monkeypatch.setattr(syntax, "MEMO", memo)
    return memo


def entry_slots(key: tuple, answer) -> int:
    """The slots one memo entry takes, counted afresh from its key and
    answer: one per formula it references, and one for a signature union
    or a presentation's matrices."""
    function = key[0]
    if function is closure_bounded:
        _, _, premises, _, seeds = key
        return len(premises) + len(seeds) + len(answer)
    if function is fibred_derives:
        premises, goal, before = key[-3:]
        return len(premises) + 1 + len(before) + len(answer[1])
    assert function in (signature_union, sound_matrices), key
    return 1


def traced_peak(call):
    """What call returns, and the most bytes tracemalloc saw allocated
    while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def memo_slots(memo) -> int:
    """The slots a memo's entries take, counted afresh."""
    return sum(entry_slots(key, answer) for key, (answer, _) in memo.table.items())


# -- exact deciders for the presets' logics, against which every answer
# the engine gives is checked


def falsified(gamma, formulas):
    """The formulas false under some valuation that makes every member of
    gamma true, by truth tables over not and imp. cpl does not axiomatize
    bot, so bot is a free atom. The table is evaluated once per formula: a
    formula's value is an int whose bit v is its value under valuation v."""
    atoms = [0, *sorted(set().union(*(phi.variables for phi in (*gamma, *formulas))))]
    rows = 1 << len(atoms)
    full = (1 << rows) - 1
    column = {
        atom: sum(1 << v for v in range(rows) if v >> k & 1) for k, atom in enumerate(atoms)
    }
    table = {}

    def value(phi):
        got = table.get(phi)
        if got is None:
            if phi.var is not None:
                got = column[phi.var]
            elif phi.head.name == "bot":
                got = column[0]
            elif phi.head.name == "not":
                got = full & ~value(phi.args[0])
            else:
                got = (full & ~value(phi.args[0])) | value(phi.args[1])
            table[phi] = got
        return got

    models = full
    for premise in gamma:
        models &= value(premise)
    return [phi for phi in formulas if models & ~value(phi)]


def intuitionistic(gamma, phi):
    """Whether phi follows from gamma in intuitionistic implicational
    logic, which A1, A2 and modus ponens present; every formula is an
    implication or a variable. Goal-directed: assume the goal's
    antecedents, then prove an atomic goal by a hypothesis whose head it
    is, proving that hypothesis's antecedents in turn. A (context, goal)
    met again on its own branch fails; both are subformulas of the
    query, so the search ends."""

    def prove(context, goal, branch):
        while goal.var is None:
            context, goal = context | {goal.args[0]}, goal.args[1]
        if (context, goal) in branch:
            return False
        branch = branch | {(context, goal)}
        for hypothesis in context:
            antecedents = []
            while hypothesis.var is None:
                antecedents.append(hypothesis.args[0])
                hypothesis = hypothesis.args[1]
            if hypothesis is goal and all(prove(context, a, branch) for a in antecedents):
                return True
        return False

    return prove(frozenset(gamma), phi, frozenset())


def unsound(name, gamma, formulas):
    """The formulas that do not follow from gamma in the logic that preset
    name presents: cpl is complete for truth tables, the implication
    fragment presents intuitionistic implication, and over conj, phi
    follows exactly when gamma holds every variable of phi."""
    if name == "conj":
        own = frozenset().union(*(premise.variables for premise in gamma))
        return [phi for phi in formulas if not phi.variables <= own]
    if name == "implication_fragment":
        return [phi for phi in formulas if not intuitionistic(gamma, phi)]
    return falsified(gamma, formulas)


def binary_calculus(symbol: str) -> CalculusPresentation:
    """A conjunction-style calculus over one binary symbol."""
    sig = make_signature([(symbol, 2)])
    f = lambda s: parse_formula(s, sig)
    return CalculusPresentation(
        sig,
        rules=(
            Rule("E1", (f(f"{symbol}(x1, x2)"),), f("x1")),
            Rule("E2", (f(f"{symbol}(x1, x2)"),), f("x2")),
            Rule("I", (f("x1"), f("x2")), f(f"{symbol}(x1, x2)")),
        ),
    )


def plain_ontology(cal: CalculusPresentation, name: str):
    """An axiom-free ontology exposing the whole signature ontologically."""
    return Ontology(name, cal, cal.sig, [])
