"""Ontologies: consequence systems extended with an ontological signature
and an axiomatic ontological theory, plus morphism checks and connection.

An ontology's consequence map is the effective calculus: the base
presentation with every ontological axiom added as a premise-free rule.
That makes the theory axiomatic by construction, so validation compares
each axiom's size with the fuel rather than re-deriving it. Ontologies are
hash-consed through the one value table (syntax.Interned), so equal
ontologies are one object, and what one is made of is checked once per
content, by its constructor: an identifier name, an ontological signature
inside the base one, and axioms in the base language.
"""

from __future__ import annotations

from typing import Iterable

from .consequence import (
    CalculusPresentation,
    Evidence,
    Fuel,
    Report,
    ReportEntry,
    Verdict,
    transfer_evidence,
)
from .errors import LanguageError, OntoSigError, ParseError, SignatureError
from .fibring import fibred_derives, merge_presentations, open_session
from .morphisms import SignatureMorphism, apply_signature_morphism
from .syntax import (
    Formula,
    Interned,
    Signature,
    by_sort_key,
    formula_in_language,
    is_identifier,
    signature_leq,
    signature_union,
)


class Ontology(Interned):
    """A named consequence system plus ontological signature and theory.

    Interned (syntax.Interned) by name, base, ontological signature and the
    set of axioms, so equality is identity. The constructor raises
    ParseError for a name that is not an identifier, so nodes stay
    serializable, OntoSigError for an ontological signature not included in
    the base one, and LanguageError for an axiom outside the base language
    (the first in canonical order). The effective calculus carries each
    axiom as a premise-free rule, so validate_ontology passes an axiom
    exactly when its size fits the fuel's max_formula_size; the bounded
    engine can still miss a fitting one. No attribute can be set.
    """

    __slots__ = ("name", "base", "onto_sig", "axioms", "effective")

    @staticmethod
    def _content(
        name: str, base: CalculusPresentation, onto_sig: Signature, axioms: Iterable[Formula]
    ) -> tuple:
        return name, base, onto_sig, tuple(sorted(set(axioms), key=by_sort_key))

    def _build(self, name, base, onto_sig, axioms) -> None:
        if not is_identifier(name):
            raise ParseError(f"ontology name {name!r} is not a valid identifier")
        if not signature_leq(onto_sig, base.sig):
            raise OntoSigError(
                f"ontological signature of {name!r} is not included in the base signature"
            )
        for phi in axioms:
            if not formula_in_language(phi, base.sig):
                raise LanguageError(f"axiom {phi.text} is outside the base language")
        self._seal(
            name=name,
            base=base,
            onto_sig=onto_sig,
            axioms=axioms,
            # base plus the ontological axioms; with none, hash-consing makes it base
            effective=base.with_axiom_formulas(axioms),
        )

    def __repr__(self) -> str:
        return f"Ontology({self.name!r}, axioms={[f.text for f in self.axioms]})"


def validate_ontology(o: Ontology, fuel: Fuel) -> Report:
    """Check the theory without a closure: an axiom is a premise-free rule
    of the effective calculus, so axioms-derivable fails exactly for one of
    more than max_formula_size nodes, though the bounded engine can miss a
    fitting one. No law is sampled: the consequence is Tarskian by theorem."""
    bad = next((phi.text for phi in o.axioms if phi.size > fuel.max_formula_size), "")
    return Report([ReportEntry("axioms-derivable", not bad, bad)])


# ---------------------------------------------------------------------------
# Morphisms between ontologies


def check_ecsy_morphism(
    h: SignatureMorphism,
    a: Ontology,
    b: Ontology,
    corpus_depth: int,
    fuel: Fuel,
) -> Evidence:
    """The consequence-morphism condition, checked by transfer_evidence from
    a's effective calculus to b's along h, then, unless that refutes, the
    exact equality of the translated ontological theory."""
    if h.source != a.base.sig or h.target != b.base.sig:
        raise SignatureError("morphism endpoints do not match the ontologies")
    evidence = transfer_evidence(
        "ecsy-morphism", a.effective, b.effective,
        lambda phi: apply_signature_morphism(h, phi), corpus_depth, fuel,
    )
    image_axioms = {apply_signature_morphism(h, phi) for phi in a.axioms}
    if evidence.ok and image_axioms != set(b.axioms):
        off = min(image_axioms ^ set(b.axioms), key=by_sort_key)
        detail = f"ecsy-morphism refuted theory mismatch at {off.text}"
        return Evidence("refuted", corpus_depth, fuel, detail)
    return evidence


# ---------------------------------------------------------------------------
# Heterogeneous connection


def connect(o1: Ontology, o2: Ontology, name: str | None = None) -> Ontology:
    """Connect two ontologies through fibring.

    The result's base is the union presentation, its ontological signature
    the union of both, and its theory exactly the union of both input
    theories (the least set the connection conditions allow): each axiom is
    already in the combined language, so it is carried over verbatim.
    """
    base = merge_presentations(o1.base, o2.base)
    onto_sig = signature_union(o1.onto_sig, o2.onto_sig)
    if name is None:
        name = f"{o1.name}_{o2.name}"
    return Ontology(name, base, onto_sig, o1.axioms + o2.axioms)


def connection_axiom_rounds(o1: Ontology, o2: Ontology, fuel: Fuel) -> list[tuple[Formula, Verdict]]:
    """Each input axiom with its fibred verdict from the empty theory, in
    the session of both effective calculi: Derived at the alternation round
    that reaches it, or a bounded miss."""
    session = open_session(o1.effective, o2.effective, fuel)
    return [(phi, fibred_derives(session, (), phi)) for phi in o1.axioms + o2.axioms]
