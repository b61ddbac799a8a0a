"""Fibring of consequence systems: sessions, side closures, and the
alternating fixpoint over the combined language.

A session holds both presentations, the fuel, their union signature and the
one interning table that both sides' translations share. Closing a set
against one side means translating into that side's language, running the
bounded closure there, and mapping back everything whose variables are
expressible: odd indices at least three, or even indices with a registered
interning slot. Formulas whose variables fall outside that discipline (for
example schema instances over raw x1) stay inside the side closure; they are
never consequences of the combined set under the translation discipline.
A member whose image would outgrow the session's formula cap stays inside
too, and its image is not built when a lower bound on its size is already
over the cap.

Every fibred member is a premise or the image, under the substitution that
maps back, of a side closure member, so by structurality it is derivable
from the premises in the union presentation (merge_presentations). A sound
matrix of that presentation (consequence.separating_matrix) that
designates every premise but not the goal therefore settles a query at
every fuel: fibred_derives answers it NotDerivedWithin without running the
alternation, and registers no interning entry. It keeps its answers in the
one memo (syntax.MEMO), so a repeated query, in any session, runs no side
closure.

Session dumps are this module's alone: one token stream (syntax.tokenize)
of `session fuel N N N union (name / arity)* intern (N formula)*`.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Iterable

from . import syntax
from .consequence import (
    CalculusPresentation,
    Derived,
    Fuel,
    NotDerivedWithin,
    Rule,
    Verdict,
    closure_bounded,
    separating_matrix,
)
from .errors import CapExceeded, FormatError, LanguageError, ParseError
from .morphisms import Interning, Translation, is_back_translatable, substitute_back, translate
from .syntax import (
    Formula,
    Signature,
    TokenReader,
    by_sort_key,
    formula_in_language,
    signature_union,
    tokenize,
)


@dataclass(frozen=True)
class FibringSession:
    """Two presentations over their union signature, with the fuel and the
    interning both sides share. Frozen: only the interning grows, and a
    dump holds it with the fuel and the union.

    Single-writer: the shared interning grows during closures, so one
    session should not be used from several tasks at once. A member whose
    image is bound to outgrow fuel.max_formula_size is never mapped back,
    so it adds no formula node.
    """

    left: CalculusPresentation
    right: CalculusPresentation
    fuel: Fuel
    union_sig: Signature
    interning: Interning


def open_session(left: CalculusPresentation, right: CalculusPresentation, fuel: Fuel) -> FibringSession:
    """Build the union signature and a fresh shared interning table."""
    return FibringSession(left, right, fuel, signature_union(left.sig, right.sig), Interning())


def _merge_rules(
    left: tuple[Rule, ...], right: tuple[Rule, ...], names: set[str]
) -> tuple[Rule, ...]:
    """Union of rule lists; identical rules collapse, and a right rule whose
    name is in names gets a deterministic suffix. names grows by every name
    the right rules take."""
    merged: list[Rule] = list(left)
    seen = set(left)
    for rule in right:
        if rule in seen:
            continue
        name = rule.name
        suffix = 2
        while name in names:
            name = f"{rule.name}_{suffix}"
            suffix += 1
        renamed = Rule(name, rule.premises, rule.conclusion) if name != rule.name else rule
        merged.append(renamed)
        names.add(name)
        seen.add(rule)
    return tuple(merged)


def merge_presentations(
    left: CalculusPresentation, right: CalculusPresentation
) -> CalculusPresentation:
    """The union presentation over the union signature. Schema rules are
    carried verbatim: schema variables range over the whole combined
    language, so each side's rules act exactly as its side closure does.
    If both sides designate a negation, the left one wins. Axioms and rules
    share one name space, as in a calculus block, so a right axiom or rule
    is renamed against every name already taken."""
    negation = left.negation if left.negation is not None else right.negation
    names = {r.name for r in left.axioms + left.rules}
    return CalculusPresentation(
        signature_union(left.sig, right.sig),
        _merge_rules(left.axioms, right.axioms, names),
        _merge_rules(left.rules, right.rules, names),
        negation,
    )


def _side(session: FibringSession, side: str) -> tuple[CalculusPresentation, Translation]:
    """One side's presentation and its translation from the union."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    cal = session.left if side == "left" else session.right
    return cal, Translation(cal.sig, session.union_sig, session.interning)


def _check_language(session: FibringSession, formulas: list[Formula]) -> None:
    for phi in formulas:
        if not formula_in_language(phi, session.union_sig):
            raise LanguageError(f"{phi.text} is outside the combined language")


def _translate_given(t: Translation, given: set[Formula]) -> list[Formula]:
    """Translate a set into one side's language in canonical order. The
    order fixes the interning index of every new foreign subtree."""
    return [translate(t, phi) for phi in sorted(given, key=by_sort_key)]


def _side_closure(
    session: FibringSession,
    side: str,
    gamma: Iterable[Formula],
    seeds: tuple[Formula, ...],
) -> frozenset[Formula]:
    cal, t = _side(session, side)
    given = set(gamma)
    translated = _translate_given(t, given)
    closed = closure_bounded(cal, translated, session.fuel, extra_pool=seeds)
    size_cap = session.fuel.max_formula_size
    entries = t.interning.entries
    registered = len(entries)
    # every premise is a member (closure_bounded refuses more premises than
    # the set cap) and maps back to itself, whatever its size
    out = set(given)
    for psi in closed:
        # expanding interned subtrees can outgrow the session's formula
        # cap; such members stay inside the side closure. Each distinct
        # even variable x(2g) occurs at least once and becomes entry g,
        # so the image has at least bound nodes and is built only when
        # bound fits; a repeated x(2g) can still take it past the cap
        bound = psi.size
        for v in psi.variables:
            if not v & 1 and v >> 1 <= registered:
                bound += entries[(v >> 1) - 1].size - 1
        if bound > size_cap or not is_back_translatable(t, psi):
            continue
        image = substitute_back(t, psi)
        if image.size <= size_cap:
            out.add(image)
    return frozenset(out)


def h_closure(session: FibringSession, side: str, gamma: Iterable[Formula]) -> frozenset[Formula]:
    """One side's closure of a combined-language set: translate, close
    with the session fuel, map back."""
    gamma = list(gamma)
    _check_language(session, gamma)
    return _side_closure(session, side, gamma, ())


def fibred_derives(session: FibringSession, gamma: Iterable[Formula], phi: Formula) -> Verdict:
    """Alternating fixpoint membership: each round adds both side closures
    of the current set. Verdicts are monotone in the round count; the round
    at which the goal appears is implementation-defined.

    A round ends after its left side closure once that closure holds the
    goal. The right side's translation of the current set still runs, so the
    shared interning registers the same subtrees in the same order as a full
    round: verdicts, depths and session dumps are those of the full round.

    A goal that a sound matrix of the union presentation separates from
    the premises is answered NotDerivedWithin(fuel) without running the
    alternation, which could not derive it at any fuel (see the module
    docstring); such an answer registers no entry. A premise set over the
    set cap raises CapExceeded in the first side closure.

    The answer is a pure function of both presentations, the fuel, the
    premise set, the goal and the interning's entries at entry, and is
    memoised under exactly that key. A hit registers the entries the first
    run registered, in the same order, so the session ends as a cold run
    leaves it, and a frozen session raises what a cold run raises. A run
    that raises is not remembered.
    """
    gamma = list(gamma)
    _check_language(session, gamma + [phi])
    current = set(gamma)
    if phi in current:
        return Derived(0)
    interning = session.interning
    before = interning.entries
    key = (fibred_derives, session.left, session.right, session.fuel, frozenset(current), phi, before)
    stored = syntax.MEMO.get(key)
    if stored is not None:
        verdict, registered = stored
        interning.extend(registered)
        return verdict
    # a premise set over the set cap goes to the alternation, whose first
    # side closure refuses it
    union = merge_presentations(session.left, session.right)
    if len(current) <= session.fuel.max_set_size and separating_matrix(union, current, phi) is not None:
        verdict = NotDerivedWithin(session.fuel)
    else:
        verdict = _alternate(session, current, phi)
    # one slot per premise, the goal, and each entry at entry or registered
    syntax.MEMO.put(key, (verdict, interning.entries[len(before):]), len(current) + 1 + len(interning))
    return verdict


def _alternate(session: FibringSession, current: set[Formula], phi: Formula) -> Verdict:
    right = _side(session, "right")[1]
    seeds_left = (translate(_side(session, "left")[1], phi),)
    seeds_right = (translate(right, phi),)
    for round_no in range(1, session.fuel.max_closure_rounds + 1):
        grown = set(current)
        grown |= _side_closure(session, "left", current, seeds_left)
        if phi in grown:
            _translate_given(right, current)
            return Derived(round_no)
        grown |= _side_closure(session, "right", current, seeds_right)
        if phi in grown:
            return Derived(round_no)
        if len(grown) > session.fuel.max_set_size:
            raise CapExceeded(
                f"combined set grew past {session.fuel.max_set_size} in round {round_no}"
            )
        if grown == current:
            break
        current = grown
    return NotDerivedWithin(session.fuel)


# ---------------------------------------------------------------------------
# Session persistence


def dump_session(session: FibringSession) -> str:
    """Union signature, fuel, and the interning table, reloadable bit-exactly.

    Serializing freezes the shared interning: the dump stays faithful, and
    the session becomes safe to share read-only.
    """
    session.interning.freeze()
    lines = [
        "session",
        "fuel\t" + "\t".join(map(str, astuple(session.fuel))),
        "union\t" + " ".join(map(str, session.union_sig.symbols())),
        "intern",
        *(f"{i}\t{phi.text}" for i, phi in enumerate(session.interning.entries, start=1)),
    ]
    return "\n".join(lines) + "\n"


def load_session(
    text: str, left: CalculusPresentation, right: CalculusPresentation
) -> FibringSession:
    """Rebuild a session from a dump whose union is that of the given
    presentations, read as one token stream of the grammar

        session fuel N N N union (name / arity)* intern (N formula)*

    The union list ends where the token after next is not '/', and entry k
    is index k. Anything else raises FormatError: "not a session dump", or
    "corrupt session dump: ..." once the first token is `session`.
    """
    try:
        reader = TokenReader(tokenize(text))
        if reader.peek() != "session":
            raise FormatError("not a session dump")
        reader.take()
        reader.take("fuel")
        fuel = Fuel(reader.take_number(), reader.take_number(), reader.take_number())
        session = open_session(left, right, fuel)
        reader.take("union")
        declared = []
        while reader.tokens[reader.pos + 1 : reader.pos + 2] == ["/"]:
            name, _, arity = reader.take(), reader.take("/"), reader.take_number()
            declared.append((name, arity))
        reader.take("intern")
        if declared != list(session.union_sig.symbols()):
            raise ParseError("union signature does not match the presentations")
        while reader.peek() is not None:
            index = reader.take_number()
            phi = reader.formula(session.union_sig)
            if session.interning.register(phi) != index:
                raise ParseError(f"entry {index} ({phi.text}) is out of order")
    except (ParseError, ValueError) as exc:
        raise FormatError(f"corrupt session dump: {exc}") from exc
    return session
