"""Ready-made signatures and calculi, built once per process."""

from __future__ import annotations

from functools import cache

from .consequence import CalculusPresentation, Rule
from .syntax import Signature, Symbol, make_signature, parse_formula


@cache
def cpl_signature() -> Signature:
    return make_signature([("bot", 0), ("not", 1), ("imp", 2)])


@cache
def cpl() -> CalculusPresentation:
    """Classical propositional logic, implication/negation presentation.

    Modus ponens plus the two implication axioms, contraposition, and the
    explosion axiom; `bot` is in the signature but not axiomatized, so the
    empty theory proves nothing about it.
    """
    sig = cpl_signature()
    f = lambda s: parse_formula(s, sig)
    axioms = (
        Rule("A1", (), f("imp(x1, imp(x2, x1))")),
        Rule("A2", (), f("imp(imp(x1, imp(x2, x3)), imp(imp(x1, x2), imp(x1, x3)))")),
        Rule("A3", (), f("imp(imp(not(x1), not(x2)), imp(x2, x1))")),
        Rule("DS", (), f("imp(not(x1), imp(x1, x2))")),
    )
    rules = (Rule("MP", (f("x1"), f("imp(x1, x2)")), f("x2")),)
    return CalculusPresentation(sig, axioms, rules, negation=Symbol("not", 1))


@cache
def implication_fragment() -> CalculusPresentation:
    """The implication-only fragment: A1, A2 and modus ponens."""
    sig = make_signature([("imp", 2)])
    f = lambda s: parse_formula(s, sig)
    axioms = (
        Rule("A1", (), f("imp(x1, imp(x2, x1))")),
        Rule("A2", (), f("imp(imp(x1, imp(x2, x3)), imp(imp(x1, x2), imp(x1, x3)))")),
    )
    rules = (Rule("MP", (f("x1"), f("imp(x1, x2)")), f("x2")),)
    return CalculusPresentation(sig, axioms, rules)


@cache
def conj() -> CalculusPresentation:
    """Conjunction logic: introduction and both eliminations, no axioms."""
    sig = make_signature([("and", 2)])
    f = lambda s: parse_formula(s, sig)
    rules = (
        Rule("AndE1", (f("and(x1, x2)"),), f("x1")),
        Rule("AndE2", (f("and(x1, x2)"),), f("x2")),
        Rule("AndI", (f("x1"), f("x2")), f("and(x1, x2)")),
    )
    return CalculusPresentation(sig, rules=rules)


def rule_free(sig: Signature | None = None, negation: Symbol | None = None) -> CalculusPresentation:
    """A presentation with no axioms and no rules: closure is the identity
    extension, so nothing beyond the premises is ever derivable."""
    if sig is None:
        sig = cpl_signature()
    return CalculusPresentation(sig, negation=negation)
