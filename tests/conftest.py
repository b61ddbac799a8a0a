"""Shared fixtures: standard calculi, fuels, and small graph builders."""

from __future__ import annotations

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
        premises, goal, before = key[4:]
        return len(premises) + 1 + len(before) + len(answer[1])
    assert function in (signature_union, sound_matrices), key
    return 1


def memo_slots(memo) -> int:
    """The slots a memo's entries take, counted afresh."""
    return sum(entry_slots(key, answer) for key, (answer, _) in memo.table.items())


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
