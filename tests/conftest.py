"""Shared fixtures: standard calculi, fuels, and small graph builders."""

from __future__ import annotations

import pytest
from hypothesis import settings

from collections import OrderedDict

from ontoweave import consequence, fibring, ontology, presets
from ontoweave.consequence import CLOSURE_MEMO_SLOTS, CalculusPresentation, Fuel, Rule, _ClosureMemo
from ontoweave.ontology import Ontology
from ontoweave.syntax import make_signature, parse_formula

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
    """An empty closure memo with the real budget in place of the shared one,
    and an empty fibring query table."""
    memo = _ClosureMemo(CLOSURE_MEMO_SLOTS)
    monkeypatch.setattr(consequence, "_CLOSURES", memo)
    monkeypatch.setattr(fibring, "_QUERIES", OrderedDict())
    return memo


def memo_slots(memo) -> int:
    """The slots a closure memo's entries take, counted afresh: one per
    premise, seed and member."""
    return sum(len(key[1]) + len(key[3]) + len(m) for key, m in memo.table.items())


@pytest.fixture
def law_checks(monkeypatch):
    """One entry per law check validate_ontology runs, from an empty report
    table."""
    calls = []
    laws = ontology.check_operator_laws
    monkeypatch.setattr(ontology, "check_operator_laws", lambda *a, **k: calls.append(1) or laws(*a, **k))
    monkeypatch.setattr(ontology, "_REPORTS", {})
    return calls


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
