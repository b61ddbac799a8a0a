"""Ontologies: consequence systems extended with an ontological signature
and an axiomatic ontological theory, plus morphism checks and connection.

An ontology's consequence map is the effective calculus: the base
presentation with every ontological axiom added as a premise-free rule.
That makes the theory axiomatic by construction, and validation re-checks
it rather than trusting it. Ontologies are hash-consed through the one
value table (syntax.Interned), so equal ontologies are one object, and what
one is made of is checked once per content, by its constructor: an
identifier name, an ontological signature inside the base one, and axioms
in the base language.
"""

from __future__ import annotations

from typing import Iterable

from .consequence import (
    CalculusPresentation,
    Evidence,
    Fuel,
    Report,
    ReportEntry,
    Rule,
    check_operator_laws,
    derives,
    transfer_scan,
)
from .errors import LanguageError, OntoSigError, ParseError, SignatureError
from .fibring import fibred_derives, open_session
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
    (the first in canonical order). Every axiom becomes derivable from the
    empty theory at depth one because the effective calculus carries it as
    a premise-free rule. No attribute can be set.
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


# every report validate_ontology has made, by all that it reads: the
# effective calculus, the axioms and the fuel. The values in a key are held
# by the value table anyway, so this adds one report per key.
_REPORTS: dict[tuple[CalculusPresentation, tuple[Formula, ...], Fuel], Report] = {}


def validate_ontology(o: Ontology, fuel: Fuel) -> Report:
    """Re-check the defining conditions with bounded evidence: the operator
    laws on 20 samples (seed 17) from the depth-2 corpus and the
    derivability of every axiom. The signature inclusion is the Ontology
    constructor's to refuse, so its entry always passes; it stays so that
    every report has the same three entries.

    The check is deterministic and its report read-only, so it runs once
    per key of _REPORTS in a process: ontologies that differ only in name
    share one report, failing or not."""
    key = (o.effective, o.axioms, fuel)
    report = _REPORTS.get(key)
    if report is None:
        report = _REPORTS[key] = _validate(*key)
    return report


def _validate(effective: CalculusPresentation, axioms: tuple[Formula, ...], fuel: Fuel) -> Report:
    laws = check_operator_laws(effective, samples=20, fuel=fuel, seed=17, corpus_depth=2)
    bad_law = laws.failure
    entries = [
        ReportEntry("consequence-laws", laws.ok, bad_law.witness if bad_law else ""),
        ReportEntry("onto-signature-inclusion", True, ""),
    ]
    bad = ""
    for phi in axioms:
        if not derives(effective, (), phi, fuel).is_derived:
            bad = phi.text
            break
    entries.append(ReportEntry("axioms-derivable", not bad, bad))
    return Report(entries)


# ---------------------------------------------------------------------------
# Morphisms between ontologies


def check_ecsy_morphism(
    h: SignatureMorphism,
    a: Ontology,
    b: Ontology,
    corpus_depth: int,
    fuel: Fuel,
) -> Evidence:
    """The consequence-morphism condition, checked by transfer_scan from a's
    effective calculus to b's along h, plus the exact equality of the
    translated ontological theory."""
    if h.source != a.base.sig or h.target != b.base.sig:
        raise SignatureError("morphism endpoints do not match the ontologies")
    checked, found = transfer_scan(
        a.effective, b.effective, lambda phi: apply_signature_morphism(h, phi), corpus_depth, fuel
    )
    if found:
        return Evidence("refuted", corpus_depth, fuel, f"ecsy-morphism refuted {found.render()}")
    image_axioms = {apply_signature_morphism(h, phi) for phi in a.axioms}
    if image_axioms != set(b.axioms):
        off = min(image_axioms ^ set(b.axioms), key=by_sort_key)
        detail = f"ecsy-morphism refuted theory mismatch at {off.text}"
        return Evidence("refuted", corpus_depth, fuel, detail)
    return Evidence("verified", corpus_depth, fuel, f"ecsy-morphism verified-up-to checked={checked}")


# ---------------------------------------------------------------------------
# Heterogeneous connection


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


def connection_axiom_rounds(o1: Ontology, o2: Ontology, fuel: Fuel) -> list[tuple[Formula, int]]:
    """For each input axiom, the alternation round at which it is
    fibred-derivable from the empty theory in the session of both effective
    calculi. Raises if any is not found."""
    session = open_session(o1.effective, o2.effective, fuel)
    out = []
    for phi in o1.axioms + o2.axioms:
        verdict = fibred_derives(session, (), phi)
        if not verdict.is_derived:
            raise LanguageError(f"axiom {phi.text} not fibred-derivable")
        out.append((phi, verdict.depth))
    return out
