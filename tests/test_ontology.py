"""Ontologies: construction, validation, morphism checks, and connection."""

import dataclasses
import itertools
import random

import pytest

from ontoweave.consequence import CalculusPresentation, Derived, Fuel, NotDerivedWithin, Rule, derives
from ontoweave.devgraph import DevGraph, add_node
from ontoweave.errors import LanguageError, OntoSigError, SignatureError
from ontoweave.morphisms import SignatureMorphism
from ontoweave.ontology import (
    Ontology,
    check_ecsy_morphism,
    connect,
    connection_axiom_rounds,
    merge_presentations,
    validate_ontology,
)
from ontoweave.syntax import Symbol, make_signature, parse_formula, signature_union
from ontoweave import consequence, presets

from conftest import binary_calculus, plain_ontology

FUEL = Fuel(2, 16, 20_000)


def f(text, sig=None):
    return parse_formula(text, sig or presets.cpl_signature())


# -- construction and validation


def test_make_ontology_empty_theory(cpl):
    o = Ontology("plain", cpl, cpl.sig, [])
    assert o.axioms == ()
    assert o.effective is cpl


def test_an_ontology_reprs_its_name_and_axioms(cpl):
    o = Ontology("efq", cpl, make_signature([("bot", 0)]), [f("imp(bot, x1)")])
    assert repr(o) == "Ontology('efq', axioms=['imp(bot, x1)'])"


def test_make_ontology_axiom_becomes_rule(cpl):
    o = Ontology("efq", cpl, make_signature([("bot", 0)]), [f("imp(bot, x1)")])
    assert f("imp(bot, x1)") in {r.conclusion for r in o.effective.axioms}
    assert derives(o.effective, (), f("imp(bot, x1)"), Fuel(1, 10, 4000)) .is_derived


def test_make_ontology_signature_violation(cpl):
    alien = make_signature([("box", 1)])
    with pytest.raises(OntoSigError):
        Ontology("bad", cpl, alien, [])


def test_make_ontology_language_violation(cpl):
    box = parse_formula("box(x1)", make_signature([("box", 1)]))
    with pytest.raises(LanguageError):
        Ontology("bad", cpl, cpl.sig, [box])


def test_validate_fresh_ontology_passes(cpl):
    o = Ontology("efq", cpl, make_signature([("bot", 0)]), [f("imp(bot, x1)")])
    report = validate_ontology(o, FUEL)
    assert report.ok, report.render()


def test_validate_catches_underivable_axiom(cpl):
    # negative control: an axiom larger than the fuel's size cap is never
    # admitted, so the effective calculus cannot derive it within the fuel
    big = f("imp(bot, " * 8 + "x1" + ")" * 8)
    assert big.size > FUEL.max_formula_size
    bad = Ontology("bad", cpl, make_signature([]), [big])
    report = validate_ontology(bad, FUEL)
    assert [e.label for e in report.entries] == ["axioms-derivable"]
    assert not report.ok
    assert report.failure.witness == big.text


def test_an_axiom_is_derivable_exactly_when_it_fits_the_size_cap(cpl):
    # the effective calculus carries the axiom as a premise-free rule, but a
    # closure admits no formula over max_formula_size nodes
    axiom = f("imp(imp(imp(x1, x2), imp(x2, x3)), imp(not(x1), imp(x3, x1)))")
    assert axiom.size == 14
    o = Ontology("big", cpl, make_signature([("bot", 0)]), [axiom])
    fits, short = Fuel(2, 14, 20_000), Fuel(2, 13, 20_000)
    assert derives(o.effective, (), axiom, fits) == Derived(1)
    assert validate_ontology(o, fits).entry("axioms-derivable").ok
    assert derives(o.effective, (), axiom, short) == NotDerivedWithin(short)
    assert validate_ontology(o, short).entry("axioms-derivable").witness == axiom.text


def zoo_ontology(cpl):
    """Three small axioms over cpl's presentation with ten more constants:
    at the default fuel, round 1 of a closure fills the staging quota with
    A1 and A2 instances before the ontological axioms are staged."""
    animals = ("dog", "cat", "bird", "fish", "mammal", "animal", "pet", "wild", "tame", "alive")
    sig = make_signature([("bot", 0), ("not", 1), ("imp", 2)] + [(c, 0) for c in animals])
    base = CalculusPresentation(sig, cpl.axioms, cpl.rules, cpl.negation)
    axioms = [f(t, sig) for t in ("imp(dog, mammal)", "imp(mammal, animal)", "imp(bot, x1)")]
    return Ontology("zoo", base, make_signature([("dog", 0), ("mammal", 0), ("animal", 0)]), axioms)


def test_validation_runs_no_closure(cpl, monkeypatch):
    def no_closure(*args, **kwargs):
        raise AssertionError("validation ran a closure")

    monkeypatch.setattr(consequence._Engine, "run", no_closure)
    zoo = zoo_ontology(cpl)
    assert validate_ontology(zoo, Fuel()).ok
    failed = validate_ontology(zoo, Fuel(6, 2, 512)).failure
    assert (failed.label, failed.witness) == ("axioms-derivable", "imp(bot, x1)")
    assert "zoo" in add_node(DevGraph(), zoo, Fuel()).nodes


def test_validate_empty_over_empty():
    empty = presets.rule_free(make_signature([]))
    o = Ontology("void", empty, make_signature([]), [])
    assert validate_ontology(o, FUEL).ok


# -- reports by content


def test_validation_runs_once_per_content(cpl):
    # equal content gives equal reports; the name is not part of what the
    # report reads
    sig = make_signature([("bot", 0)])
    bad = f("imp(bot, " * 8 + "x1" + ")" * 8)
    for axioms in ([f("imp(bot, x1)")], [bad]):
        first = validate_ontology(Ontology("once_a", cpl, sig, axioms), FUEL)
        second = validate_ontology(Ontology("once_b", cpl, sig, axioms), FUEL)
        assert second == first
    assert not first.ok and first.failure.witness == bad.text


def test_a_thousand_distinct_validations_keep_the_memo_within_its_budget(cold_memo):
    # a report compares each axiom's size with the fuel and runs no
    # closure, so validation leaves no entry in the memo
    sig = make_signature([("a", 0), ("s", 1), ("t", 1)])
    base = presets.rule_free(sig)
    fuel = Fuel(1, 4, 20)
    words = itertools.product("st", repeat=10)
    for i, word in zip(range(1000), words):
        o = Ontology(f"o{i}", base, sig, [parse_formula("(".join(word) + "(a" + ")" * 10, sig)])
        before = list(cold_memo.table.items())
        assert not validate_ontology(o, fuel).ok
        assert list(cold_memo.table.items()) == before


def test_reports_are_read_only(cpl):
    report = validate_ontology(Ontology("plain", cpl, cpl.sig, []), FUEL)
    assert isinstance(report.entries, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.entries = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.entries[0].ok = False
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.entries[0].witness = "changed"
    assert report.ok


# -- ontology morphisms


def test_ecsy_identity(cpl):
    o = Ontology("efq", cpl, make_signature([("bot", 0)]), [f("imp(bot, x1)")])
    h = SignatureMorphism.identity(cpl.sig)
    ev = check_ecsy_morphism(h, o, o, corpus_depth=2, fuel=Fuel(1, 12, 8000))
    assert ev.ok and ev.status == "verified"
    assert ev.detail.startswith("ecsy-morphism verified-up-to checked=")


def test_ecsy_relabeling(conj):
    meet = binary_calculus("meet")
    and_sym, meet_sym = Symbol("and", 2), Symbol("meet", 2)
    src = Ontology("a", conj, conj.sig, [parse_formula("and(x1, x1)", conj.sig)])
    # relabeled axioms must match exactly on the image
    dst_cal = CalculusPresentation(meet.sig, meet.axioms, meet.rules)
    dst = Ontology("m", dst_cal, meet.sig, [parse_formula("meet(x1, x1)", meet.sig)])
    h = SignatureMorphism(conj.sig, meet.sig, {and_sym: meet_sym})
    ev = check_ecsy_morphism(h, src, dst, corpus_depth=2, fuel=Fuel(1, 12, 8000))
    assert ev.status == "verified", ev.detail


def test_ecsy_theory_mismatch(conj):
    meet = binary_calculus("meet")
    and_sym, meet_sym = Symbol("and", 2), Symbol("meet", 2)
    src = Ontology("a", conj, conj.sig, [parse_formula("and(x1, x1)", conj.sig)])
    dst = Ontology("m", meet, meet.sig, [])  # image axiom missing
    h = SignatureMorphism(conj.sig, meet.sig, {and_sym: meet_sym})
    ev = check_ecsy_morphism(h, src, dst, corpus_depth=2, fuel=Fuel(1, 12, 8000))
    assert not ev.ok and ev.status == "refuted"
    assert ev.detail.startswith("ecsy-morphism refuted ")
    assert "meet(x1, x1)" in ev.detail


def test_ecsy_endpoint_mismatch(cpl, conj):
    o1 = plain_ontology(cpl, "a")
    o2 = plain_ontology(conj, "b")
    with pytest.raises(SignatureError):
        check_ecsy_morphism(SignatureMorphism.identity(cpl.sig), o1, o2, 1, FUEL)


def test_ecsy_refuted_consequence(cpl, rule_free):
    # identity relabeling into a calculus that cannot replay modus ponens
    o1 = plain_ontology(cpl, "strong")
    o2 = plain_ontology(rule_free, "weak")
    h = SignatureMorphism.identity(cpl.sig)
    ev = check_ecsy_morphism(h, o1, o2, corpus_depth=2, fuel=Fuel(1, 12, 8000))
    assert ev.detail.startswith("ecsy-morphism refuted gamma=")
    assert "x2" in ev.detail


# -- merge and connect


def test_merge_presentations_disjoint(cpl, conj):
    merged = merge_presentations(cpl, conj)
    assert merged.sig == signature_union(cpl.sig, conj.sig)
    assert {r.name for r in merged.rules} == {"MP", "AndE1", "AndE2", "AndI"}
    assert merged.negation == cpl.negation


def test_merge_renames_clashing_rules():
    a = binary_calculus("and")
    b = binary_calculus("or")
    merged = merge_presentations(a, b)
    names = [r.name for r in merged.rules]
    assert len(names) == len(set(names)) == 6


def test_connect_with_neutral_element(cpl):
    o = Ontology("efq", cpl, make_signature([("bot", 0)]), [f("imp(bot, x1)")])
    void = Ontology("void", presets.rule_free(make_signature([])), make_signature([]), [])
    both = connect(o, void)
    assert both.base.sig == cpl.sig
    assert both.axioms == o.axioms
    assert both.onto_sig == o.onto_sig
    assert validate_ontology(both, FUEL).ok


def test_connect_cpl_conj(cpl, conj):
    o1 = Ontology("efq", cpl, make_signature([("bot", 0)]), [f("imp(bot, x1)")])
    o2 = Ontology("conj", conj, conj.sig, [])
    both = connect(o1, o2)
    assert both.onto_sig == signature_union(o1.onto_sig, o2.onto_sig)
    assert [a.text for a in both.axioms] == ["imp(bot, x1)"]
    assert validate_ontology(both, FUEL).ok
    assert both.name == "efq_conj"


def test_ontology_name_must_serialize(cpl):
    from ontoweave.errors import ParseError

    with pytest.raises(ParseError, match="^ontology name 'bad name' is not a valid identifier$"):
        Ontology("bad name", cpl, cpl.sig, [])
    with pytest.raises(ParseError):
        Ontology("a+b", cpl, cpl.sig, [])


def test_connect_symmetric_up_to_name(cpl, conj):
    o1 = Ontology("efq", cpl, make_signature([("bot", 0)]), [f("imp(bot, x1)")])
    o2 = Ontology("conj", conj, conj.sig, [parse_formula("and(x1, x1)", conj.sig)])
    ab = connect(o1, o2)
    ba = connect(o2, o1)
    assert ab.axioms == ba.axioms
    assert ab.onto_sig == ba.onto_sig
    assert validate_ontology(ab, FUEL).ok and validate_ontology(ba, FUEL).ok


def test_connect_axioms_fibred_derivable(cpl, conj):
    o1 = Ontology("efq", cpl, make_signature([("bot", 0)]), [f("imp(bot, x1)")])
    o2 = Ontology("conj", conj, conj.sig, [parse_formula("and(x1, x1)", conj.sig)])
    rounds = connection_axiom_rounds(o1, o2, Fuel(2, 14, 8000))
    assert rounds
    for image, round_no in rounds:
        assert round_no <= 2, image.text


def test_an_axiom_not_fibred_derivable_is_refused(cpl, conj):
    o1 = Ontology("efq", cpl, make_signature([("bot", 0)]), [f("imp(bot, x1)")])
    o2 = Ontology("conj", conj, conj.sig, [])
    with pytest.raises(LanguageError, match=r"^axiom imp\(bot, x1\) not fibred-derivable$"):
        connection_axiom_rounds(o1, o2, Fuel(1, 2, 512))


def test_connect_shared_symbols(cpl):
    other = CalculusPresentation(
        make_signature([("imp", 2), ("box", 1)]),
        rules=(Rule("K", (f("x1", make_signature([("imp", 2), ("box", 1)])),),
                    parse_formula("box(x1)", make_signature([("imp", 2), ("box", 1)]))),),
    )
    o1 = plain_ontology(cpl, "classical")
    o2 = plain_ontology(other, "boxy")
    both = connect(o1, o2)
    assert Symbol("imp", 2) in both.base.sig
    assert Symbol("box", 1) in both.base.sig
    assert validate_ontology(both, FUEL).ok


def test_random_connections_validate(cpl, conj):
    from ontoweave.syntax import enumerate_formulas

    rng = random.Random(13)
    pool = [cpl, conj, presets.implication_fragment(), binary_calculus("join")]
    for i in range(6):
        left_cal = rng.choice(pool)
        right_cal = rng.choice(pool)
        candidates = enumerate_formulas(left_cal.sig, 2, 2)[:6]
        left_axioms = rng.choice([[]] + [[phi] for phi in candidates])
        o1 = Ontology(f"L{i}", left_cal, left_cal.sig, left_axioms)
        o2 = Ontology(f"R{i}", right_cal, right_cal.sig, [])
        both = connect(o1, o2)
        assert validate_ontology(both, FUEL).ok
