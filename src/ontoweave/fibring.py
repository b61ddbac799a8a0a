"""Fibring of consequence systems: sessions, side closures, and the
alternating fixpoint over the combined language.

A session owns the union signature and one shared interning table. Closing a
set against one side means translating into that side's language, running the
bounded closure there, and mapping back everything whose variables are
expressible: odd indices at least three, or even indices with a registered
interning slot. Formulas whose variables fall outside that discipline (for
example schema instances over raw x1) stay inside the side closure; they are
never consequences of the combined set under the translation discipline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .consequence import CalculusPresentation, Derived, Fuel, NotDerivedWithin, Verdict, closure_bounded
from .errors import CapExceeded, FormatError, LanguageError
from .morphisms import (
    Interning,
    Translation,
    is_back_translatable,
    substitute_back,
    translate,
)
from .syntax import Formula, Signature, formula_in_language, signature_union


@dataclass
class FibringSession:
    """Two presentations joined over their union signature.

    Single-writer: the shared interning grows during closures, so one
    session should not be used from several tasks at once.
    """

    left: CalculusPresentation
    right: CalculusPresentation
    union_sig: Signature
    t_left: Translation
    t_right: Translation
    fuel: Fuel

    def translation(self, side: str) -> Translation:
        if side == "left":
            return self.t_left
        if side == "right":
            return self.t_right
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    def presentation(self, side: str) -> CalculusPresentation:
        return self.left if side == "left" else self.right


def open_session(
    left: CalculusPresentation, right: CalculusPresentation, fuel: Fuel
) -> FibringSession:
    """Build the union signature and a fresh shared interning table."""
    union = signature_union(left.sig, right.sig)
    interning = Interning()
    return FibringSession(
        left=left,
        right=right,
        union_sig=union,
        t_left=Translation(left.sig, union, interning),
        t_right=Translation(right.sig, union, interning),
        fuel=fuel,
    )


def _translate_given(t: Translation, given: set[Formula]) -> list[Formula]:
    """Translate a set into one side's language in canonical order. The
    order fixes the interning index of every new foreign subtree."""
    return [translate(t, phi) for phi in sorted(given, key=lambda f: f.sort_key)]


def _side_closure(
    session: FibringSession,
    side: str,
    gamma: Iterable[Formula],
    seeds: tuple[Formula, ...],
) -> frozenset[Formula]:
    t = session.translation(side)
    cal = session.presentation(side)
    given = set(gamma)
    translated = _translate_given(t, given)
    closed = closure_bounded(cal, translated, session.fuel, extra_pool=seeds)
    size_cap = session.fuel.max_formula_size
    out = set()
    for psi in closed:
        if is_back_translatable(t, psi):
            image = substitute_back(t, psi)
            # expanding interned subtrees can outgrow the session's formula
            # cap; such members stay inside the side closure
            if image.size <= size_cap or image in given:
                out.add(image)
    return frozenset(out)


def h_closure(session: FibringSession, side: str, gamma: Iterable[Formula]) -> frozenset[Formula]:
    """One side's closure of a combined-language set: translate, close
    with the session fuel, map back."""
    gamma = list(gamma)
    for phi in gamma:
        if not formula_in_language(phi, session.union_sig):
            raise LanguageError(f"{phi.text} is outside the combined language")
    return _side_closure(session, side, gamma, ())


def fibred_derives(session: FibringSession, gamma: Iterable[Formula], phi: Formula) -> Verdict:
    """Alternating fixpoint membership: each round adds both side closures
    of the current set. Verdicts are monotone in the round count; the round
    at which the goal appears is implementation-defined.

    A round ends after its left side closure once that closure holds the
    goal. The right side's translation of the current set still runs, so the
    shared interning registers the same subtrees in the same order as a full
    round: verdicts, depths and session dumps are those of the full round.
    """
    gamma = list(gamma)
    current = set(gamma)
    for f in gamma + [phi]:
        if not formula_in_language(f, session.union_sig):
            raise LanguageError(f"{f.text} is outside the combined language")
    if phi in current:
        return Derived(0)
    seeds_left = tuple(translate(session.t_left, phi).subformulas())
    seeds_right = tuple(translate(session.t_right, phi).subformulas())
    for round_no in range(1, session.fuel.max_closure_rounds + 1):
        grown = set(current)
        grown |= _side_closure(session, "left", current, seeds_left)
        if phi in grown:
            _translate_given(session.t_right, current)
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
    session.t_left.interning.freeze()
    lines = [
        "session",
        "fuel\t{}\t{}\t{}".format(
            session.fuel.max_closure_rounds,
            session.fuel.max_formula_size,
            session.fuel.max_set_size,
        ),
        "union\t" + " ".join(str(s) for s in session.union_sig.symbols()),
        "intern",
    ]
    return "\n".join(lines) + "\n" + session.t_left.interning.serialize()


def load_session(
    text: str, left: CalculusPresentation, right: CalculusPresentation
) -> FibringSession:
    """Rebuild a session from a dump; the dump's union signature must match
    the union of the given presentations."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "session":
        raise FormatError("not a session dump")
    fuel = None
    union_decl = None
    intern_at = None
    for i, line in enumerate(lines[1:], start=1):
        if line.startswith("fuel\t"):
            parts = line.split("\t")
            if len(parts) != 4:
                raise FormatError(f"bad fuel line: {line!r}")
            try:
                fuel = Fuel(int(parts[1]), int(parts[2]), int(parts[3]))
            except ValueError as exc:
                raise FormatError(str(exc)) from exc
        elif line.startswith("union\t"):
            union_decl = line.split("\t", 1)[1]
        elif line.strip() == "intern":
            intern_at = i + 1
            break
    if fuel is None or union_decl is None or intern_at is None:
        raise FormatError("session dump is missing fuel, union, or intern sections")
    session = open_session(left, right, fuel)
    recorded = " ".join(str(s) for s in session.union_sig.symbols())
    if recorded != union_decl.strip():
        raise FormatError("session dump union signature does not match the presentations")
    table = Interning.deserialize("\n".join(lines[intern_at:]), session.union_sig)
    session.t_left.interning = table
    session.t_right.interning = table
    return session
