"""The bounded derivability engine: closure, verdicts, operator laws,
structurality, weakness, and the meta-principle probes."""

import random
import re
from itertools import product

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from ontoweave.consequence import (
    CalculusPresentation,
    Derived,
    Fuel,
    NotDerivedWithin,
    Report,
    ReportEntry,
    Rule,
    check_operator_laws,
    check_principles,
    check_structural,
    closure_bounded,
    derives,
    transfer_evidence,
    weaker_than,
)
from ontoweave.consequence import _Engine, _StagingFull
from ontoweave.errors import CapExceeded, ConfigError, LanguageError
from ontoweave.syntax import (
    MEMO_SLOTS,
    Memo,
    Symbol,
    apply_symbol,
    enumerate_formulas,
    make_signature,
    parse_formula,
    substitute,
    svar,
)
from ontoweave import consequence, presets, syntax
from conftest import memo_slots


def f(text, sig=None):
    return parse_formula(text, sig or presets.cpl_signature())


# -- presentation construction


def test_axiom_with_premises_rejected():
    sig = presets.cpl_signature()
    with pytest.raises(ValueError):
        CalculusPresentation(sig, axioms=(Rule("bad", (f("x1"),), f("x1")),))
    # and a rule without premises, which could never fire
    with pytest.raises(ValueError, match="^rule 'bad' has no premises$"):
        CalculusPresentation(sig, rules=(Rule("bad", (), f("x1")),))


def test_schema_outside_language_rejected():
    sig = make_signature([("imp", 2)])
    with pytest.raises(LanguageError, match=r"^schema of 'A' not\(x1\) is not in the given language$"):
        CalculusPresentation(sig, axioms=(Rule("A", (), f("not(x1)")),))


def test_negation_must_be_unary_in_signature():
    sig = make_signature([("imp", 2)])
    from ontoweave.syntax import Symbol

    with pytest.raises(ConfigError):
        CalculusPresentation(sig, negation=Symbol("not", 1))


# -- hash-consing: one presentation per content

CONJ_DEFS = """
signature CONJ { and/2; }
calculus conj over CONJ {
  rule AndI: x1, x2 |- and(x1, x2);
  rule AndE2: and(x1, x2) |- x2;
  rule AndE1: and(x1, x2) |- x1;
}
"""


def test_equal_content_is_one_presentation():
    from ontoweave.dsl import parse_document
    from ontoweave.ontology import merge_presentations

    parsed = parse_document(CONJ_DEFS).calculi["conj"]
    assert parse_document(CONJ_DEFS).calculi["conj"] is parsed
    assert parsed is presets.conj()
    assert presets.cpl() is presets.cpl()
    assert presets.cpl()._inst_memo is presets.cpl()._inst_memo
    merged = merge_presentations(presets.cpl(), presets.conj())
    assert merge_presentations(presets.cpl(), presets.conj()) is merged
    cpl = presets.cpl()
    extra = [f("imp(bot, x1)"), f("not(bot)"), f("imp(x1, x1)")]
    assert cpl.with_axiom_formulas(extra) is cpl.with_axiom_formulas(extra[::-1])
    assert cpl.with_axiom_formulas(()) is cpl
    conj = presets.conj()
    assert CalculusPresentation(make_signature([("and", 2)]), rules=conj.rules[::-1]) is conj


def test_different_content_is_a_different_presentation():
    conj = presets.conj()
    e1, e2, i = conj.rules
    sig = conj.sig
    variants = [
        conj,
        CalculusPresentation(sig, rules=(Rule("E1", e1.premises, e1.conclusion), e2, i)),
        CalculusPresentation(sig, rules=(Rule(e1.name, e1.premises, f("x2", sig)), e2, i)),
        CalculusPresentation(sig, rules=(e1, e2)),
        presets.cpl(),
        CalculusPresentation(presets.cpl().sig, presets.cpl().axioms, presets.cpl().rules),
    ]
    assert len(set(variants)) == len(variants)
    assert variants[0] != variants[1]


def test_rebuilding_keeps_the_instance_memo():
    cal = presets.implication_fragment()
    closure_bounded(cal, [], Fuel(1, 12, 4000))
    filled = dict(cal._inst_memo)
    assert filled
    again = presets.implication_fragment()
    assert again is cal and again._inst_memo == filled


def test_invalid_presentation_raises_every_time():
    sig = make_signature([("imp", 2)])
    for _ in range(2):
        with pytest.raises(LanguageError):
            CalculusPresentation(sig, axioms=(Rule("A", (), f("not(x1)")),))
        with pytest.raises(ValueError):
            CalculusPresentation(sig, axioms=(Rule("bad", (f("x1", sig),), f("x1", sig)),))
        with pytest.raises(ConfigError):
            CalculusPresentation(sig, negation=Symbol("not", 1))


def test_fuel_fields_must_be_positive():
    with pytest.raises(ValueError):
        Fuel(0, 10, 10)
    with pytest.raises(ValueError):
        Fuel(1, 0, 10)
    with pytest.raises(ValueError):
        Fuel(1, 10, 0)


def test_verdict_shapes():
    assert Derived(2).is_derived
    assert Derived(2).depth == 2
    bound = Fuel(1, 8, 8)
    assert not NotDerivedWithin(bound).is_derived
    assert NotDerivedWithin(bound).bound == bound


# -- closure_bounded


def test_closure_modus_ponens_one_round(cpl, quick_fuel):
    out = closure_bounded(cpl, [f("x1"), f("imp(x1, x2)")], Fuel(1, 14, 20000))
    assert f("x2") in out


def test_closure_rule_free_is_extensive_only(rule_free):
    gamma = [f("x1"), f("imp(x1, x2)")]
    out = closure_bounded(rule_free, gamma, Fuel(4, 24, 20000))
    assert out == frozenset(gamma)


def test_closure_empty_set_contains_axiom_schema(cpl):
    out = closure_bounded(cpl, [], Fuel(1, 9, 20000))
    assert f("imp(x1, imp(x2, x1))") in out


def test_closure_rejects_foreign_premises(cpl, quick_fuel):
    box_sig = make_signature([("box", 1)])
    with pytest.raises(LanguageError):
        closure_bounded(cpl, [parse_formula("box(x1)", box_sig)], quick_fuel)


def test_closure_premise_cap(cpl):
    tiny = Fuel(1, 9, 2)
    with pytest.raises(CapExceeded):
        closure_bounded(cpl, [f("x1"), f("x2"), f("bot")], tiny)


def test_closure_monotone_in_gamma(cpl, quick_fuel):
    rng = random.Random(3)
    corpus = enumerate_formulas(cpl.sig, 2, 2)
    for _ in range(12):
        gamma = set(rng.sample(corpus, 3))
        delta = set(rng.sample(sorted(gamma, key=lambda x: x.sort_key), 2))
        assert closure_bounded(cpl, delta, quick_fuel) <= closure_bounded(cpl, gamma, quick_fuel)


def test_closure_monotone_in_fuel(cpl):
    gamma = [f("x1"), f("imp(x1, x2)")]
    lo = closure_bounded(cpl, gamma, Fuel(1, 10, 50000))
    for bigger in (Fuel(2, 10, 50000), Fuel(1, 14, 50000), Fuel(2, 16, 50000)):
        assert lo <= closure_bounded(cpl, gamma, bigger)


def test_conclusion_only_variable_meets_new_pool_values():
    sig = make_signature([("a", 0), ("or", 2)])
    g = lambda text: parse_formula(text, sig)
    cal = CalculusPresentation(sig, rules=[Rule("OrI", (g("x1"),), g("or(x1, x2)"))])
    a, goal = g("a"), g("or(a, or(a, x1))")
    # closing the one-round closure for one more round reaches the goal
    one = closure_bounded(cal, [a], Fuel(1, 31, 100_000))
    assert goal in closure_bounded(cal, one, Fuel(1, 31, 100_000))
    assert goal in closure_bounded(cal, [a], Fuel(3, 31, 100_000))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 15: the pool thresholds grow with max_formula_size, so at "
    "size 31 the 512 set cap fills with wider instances and the lemma is truncated",
)
def test_a_larger_fuel_keeps_a_derived_verdict(cpl):
    bot, goal = f("bot"), f("imp(x2, x2)")
    assert derives(cpl, [bot], goal, Fuel(6, 16, 512)) == Derived(3)
    assert derives(cpl, [bot], goal, Fuel(6, 31, 512)).is_derived


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 4: with six constants, round 1 stages 169 A1 and 1943 A2 "
    "instances, which fill the staging quota before DS runs; admission then fills the "
    "set cap, so no later round stages the calculus's own DS axiom",
)
def test_an_axiom_of_the_calculus_is_derived_beside_six_constants(cpl):
    def over(constants):
        """cpl's presentation over its signature plus c1..c<constants>, and DS."""
        sig = make_signature(
            [("bot", 0), ("not", 1), ("imp", 2)] + [(f"c{i}", 0) for i in range(1, constants + 1)]
        )
        cal = CalculusPresentation(sig, cpl.axioms, cpl.rules, cpl.negation)
        return cal, f("imp(not(x1), imp(x1, x2))", sig)

    cal, ds = over(5)
    assert derives(cal, (), ds, Fuel()) == Derived(1)
    cal, ds = over(6)
    assert derives(cal, (), ds, Fuel()).is_derived


# -- the closure memo


def _canonical(formulas):
    return tuple(sorted(set(formulas), key=lambda g: g.sort_key))


@pytest.mark.parametrize("name", ["cpl", "implication_fragment", "conj"])
def test_memoised_closure_equals_a_fresh_engine(name, cold_memo):
    cal = getattr(presets, name)()
    rng = random.Random(10)
    corpus = enumerate_formulas(cal.sig, 2, 2)
    calls = capped = 0
    for _ in range(6):
        premises = rng.sample(corpus, rng.randint(0, 3))
        seeds = rng.sample(corpus, rng.randint(0, 2))
        for fuel in (Fuel(), Fuel(2, 14, 3000)):
            want, _ = _Engine(cal, fuel, seeds).run(_canonical(premises))
            capped += len(want) >= fuel.max_set_size
            for _ in range(2):
                # reordered, with repeats, and the seeds likewise
                gamma = premises + premises[: rng.randint(0, len(premises))]
                rng.shuffle(gamma)
                pool = seeds + seeds[:1]
                rng.shuffle(pool)
                assert closure_bounded(cal, gamma, fuel, extra_pool=pool) == want
                calls += 1
    assert len(cold_memo.table) <= calls // 2
    # the 512 cap of Fuel() binds on some cpl and conj closures
    assert bool(capped) == (name != "implication_fragment")


def test_checkers_agree_with_a_cold_and_a_warm_memo(cpl, imp_fragment, rule_free, cold_memo, monkeypatch):
    fuel = Fuel(2, 12, 3000)

    def check():
        return (
            check_operator_laws(cpl, 8, fuel, seed=3, corpus_depth=2).render(),
            transfer_evidence("scan", imp_fragment, cpl, lambda phi: phi, 2, fuel),
            transfer_evidence("scan", cpl, rule_free, lambda phi: phi, 2, fuel),
        )

    cold = check()
    stored = len(cold_memo.table)
    assert stored and cold[1].status == "verified" and cold[2].status == "refuted"
    assert check() == cold
    assert len(cold_memo.table) == stored  # every closure was a hit
    monkeypatch.setattr(syntax, "MEMO", Memo(MEMO_SLOTS))
    assert check() == cold


def test_memo_stays_within_its_slot_budget(cpl, monkeypatch):
    memo = Memo(400)
    monkeypatch.setattr(syntax, "MEMO", memo)
    rng = random.Random(5)
    corpus = enumerate_formulas(cpl.sig, 2, 2)
    fuel = Fuel(1, 10, 200)
    for _ in range(40):
        gamma = rng.sample(corpus, 2)
        assert closure_bounded(cpl, gamma, fuel) == _Engine(cpl, fuel, ()).run(_canonical(gamma))[0]
        assert memo.slots == memo_slots(memo) <= 400
    assert 0 < len(memo.table) < 40
    # an entry bigger than the whole budget is returned but not stored
    big = Fuel()
    gamma = [f("x1"), f("imp(x1, x2)")]
    want, _ = _Engine(cpl, big, ()).run(_canonical(gamma))
    assert len(want) == 512
    held = dict(memo.table)
    assert closure_bounded(cpl, gamma, big) == want
    assert memo.table == held and memo.slots == memo_slots(memo)


def test_memoised_closure_still_checks_its_premises(cpl, quick_fuel, cold_memo):
    # entries for the very keys a bad call would look up do not stop it raising
    box = parse_formula("box(x1)", make_signature([("box", 1)]))
    cold_memo.put((closure_bounded, cpl, (box,), quick_fuel, ()), (box,), 2)
    three = [f("x1"), f("x2"), f("bot")]
    tiny = Fuel(1, 9, 2)
    cold_memo.put((closure_bounded, cpl, _canonical(three), tiny, ()), tuple(three), 6)
    for _ in range(2):
        with pytest.raises(LanguageError):
            closure_bounded(cpl, [box], quick_fuel)
        with pytest.raises(CapExceeded):
            closure_bounded(cpl, three, tiny)


# -- derives


def test_derives_membership_depth_zero(cpl, quick_fuel):
    assert derives(cpl, [f("x1")], f("x1"), quick_fuel) == Derived(0)


def test_derives_two_mp_steps(cpl, quick_fuel):
    v = derives(cpl, [f("x1"), f("imp(x1, x2)"), f("imp(x2, x3)")], f("x3"), quick_fuel)
    assert v.is_derived and v.depth <= 2


def test_derives_bounded_negative(cpl, quick_fuel):
    v = derives(cpl, [], f("x1"), quick_fuel)
    assert v == NotDerivedWithin(quick_fuel)


def test_derives_refuses_a_goal_outside_the_language(cpl, quick_fuel):
    box = parse_formula("box(x1)", make_signature([("box", 1)]))
    with pytest.raises(LanguageError, match=r"^goal box\(x1\) is outside the calculus language$"):
        derives(cpl, [f("x1")], box, quick_fuel)


def test_derives_agrees_with_seeded_closure(cpl, quick_fuel):
    rng = random.Random(11)
    corpus = enumerate_formulas(cpl.sig, 2, 2)
    for _ in range(15):
        gamma = rng.sample(corpus, 2)
        phi = rng.choice(corpus)
        verdict = derives(cpl, gamma, phi, quick_fuel)
        closed = closure_bounded(cpl, gamma, quick_fuel, extra_pool=(phi,))
        assert verdict.is_derived == (phi in closed)


def test_derived_verdicts_stable_under_fuel_increase(cpl, quick_fuel):
    queries = [
        ([f("x1"), f("imp(x1, x2)")], f("x2")),
        ([f("not(x1)"), f("x1")], f("x2")),
        ([], f("imp(x1, imp(x2, x1))")),
    ]
    big = Fuel(
        2 * quick_fuel.max_closure_rounds,
        2 * quick_fuel.max_formula_size,
        2 * quick_fuel.max_set_size,
    )
    for gamma, phi in queries:
        lo = derives(cpl, gamma, phi, Fuel(3, 24, 50000))
        assert lo.is_derived
        assert derives(cpl, gamma, phi, big).is_derived or not lo.is_derived


def test_explosion_derivable(cpl):
    fuel = Fuel(3, 24, 50000)
    v = derives(cpl, [f("x1"), f("not(x1)")], f("x2"), fuel)
    assert v.is_derived


def test_identity_implication_derivable(cpl):
    # needs the A2 instance whose middle value is imp(x1, x1); the value is
    # admitted because goal subtrees seed the instantiation pool
    v = derives(cpl, [], f("imp(x1, x1)"), Fuel(5, 24, 50000))
    assert v == Derived(3)


# -- deduction-theorem spot checks (5 hand-verified instances)

DEDUCTION_CASES = [
    # (gamma, a, b): gamma + {a} |- b within base fuel, then gamma |- imp(a, b)
    (("x2",), "x1", "x2"),
    (("imp(x1, x2)",), "x1", "x2"),
    ((), "x1", "imp(x2, x1)"),
    (("imp(x1, x2)", "imp(x2, x3)"), "x1", "x3"),
    (("not(x1)",), "x1", "x2"),
]


@pytest.mark.parametrize("gamma_txt,a_txt,b_txt", DEDUCTION_CASES)
def test_deduction_theorem_spot_checks(cpl, gamma_txt, a_txt, b_txt):
    base = Fuel(3, 24, 50000)
    escalated = Fuel(5, 24, 50000)
    gamma = [f(t) for t in gamma_txt]
    a, b = f(a_txt), f(b_txt)
    assert derives(cpl, gamma + [a], b, base).is_derived
    goal = f(f"imp({a_txt}, {b_txt})")
    assert derives(cpl, gamma, goal, escalated).is_derived


# -- operator laws


def test_laws_rule_free_all_pass(rule_free):
    report = check_operator_laws(rule_free, samples=40, fuel=Fuel(2, 14, 20000), seed=1)
    assert report.ok


def test_laws_cpl_seed_seven(cpl):
    report = check_operator_laws(cpl, samples=100, fuel=Fuel(2, 14, 50000), seed=7)
    assert report.ok, report.render()


def test_laws_report_format(cpl):
    report = check_operator_laws(cpl, samples=5, fuel=Fuel(1, 10, 20000), seed=2)
    lines = report.render().splitlines()
    assert len(lines) == 4
    for line in lines:
        label, status, _witness = line.split("\t")
        assert status in ("pass", "fail")
    assert [l.split("\t")[0] for l in lines] == [
        "extensivity",
        "monotonicity",
        "cut",
        "idempotence",
    ]


@pytest.mark.parametrize("seed", [0, 1])
def test_laws_skip_samples_truncated_by_the_set_cap(seed):
    # `ontoweave check` defaults: 30 samples, corpus depth 2, Fuel(). Some
    # conjunction closures fill the 512 set cap, below which alone the laws
    # are promised, so a truncated closure must not read as a law failure.
    report = check_operator_laws(
        presets.conj(), samples=30, fuel=Fuel(), seed=seed, corpus_depth=2
    )
    assert report.ok, report.render()


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_probes_skip_premise_sets_over_the_set_cap(cap, cpl, conj):
    # the law probes draw up to four premises and the structurality probe
    # two; a comparison over the cap is skipped, and every entry is reported
    for cal in (cpl, conj):
        laws = check_operator_laws(cal, samples=30, fuel=Fuel(2, 10, cap), seed=3, corpus_depth=2)
        assert [e.label for e in laws.entries] == ["extensivity", "monotonicity", "cut", "idempotence"]
        assert laws.ok, laws.render()
        structural = check_structural(cal, samples=12, fuel=Fuel(2, 10, cap), seed=5)
        assert structural.ok, structural.render()


def test_laws_broken_closure_reports_extensivity(cpl, monkeypatch):
    # the fake wraps the real closure_bounded, imported above
    def amnesiac(cal, gamma, fuel, extra_pool=()):
        return closure_bounded(cal, [], fuel, extra_pool=extra_pool)

    monkeypatch.setattr(consequence, "closure_bounded", amnesiac)
    report = check_operator_laws(cpl, samples=30, fuel=Fuel(1, 10, 20000), seed=3)
    entry = report.entry("extensivity")
    assert not entry.ok
    assert entry.witness


def test_a_report_has_no_entry_under_an_absent_label():
    report = Report([ReportEntry("extensivity", True, "")])
    assert report.entry("extensivity").ok
    with pytest.raises(KeyError, match="cut"):
        report.entry("cut")


def test_laws_broken_conclusion_reports_a_cut_witness(cpl, monkeypatch):
    # the fake derives nothing at doubled fuel, where the cut probe closes
    # delta | gamma, so a b that gamma | {a} derives goes missing
    def forgetful(cal, gamma, fuel, extra_pool=()):
        if fuel != base:
            return frozenset()
        return closure_bounded(cal, gamma, fuel, extra_pool=extra_pool)

    base = Fuel(1, 10, 20000)
    monkeypatch.setattr(consequence, "closure_bounded", forgetful)
    entry = check_operator_laws(cpl, samples=30, fuel=base, seed=3).entry("cut")
    assert not entry.ok
    assert re.fullmatch(r"delta=\{.*\} gamma=\{.*\} a=\S.* b=\S.*", entry.witness), entry.witness


def test_laws_refuse_zero_samples(cpl):
    with pytest.raises(ValueError, match="^samples must be >= 1$"):
        check_operator_laws(cpl, samples=0, fuel=Fuel(1, 10, 20000), seed=0)


def test_laws_quasi_closure_reports_idempotence_without_raising(cpl, monkeypatch):
    # a quasi closure: re-closing keeps inflating, so idempotence fails but
    # the check reports a bound instead of raising
    def inflator(cal, gamma, fuel, extra_pool=()):
        base = closure_bounded(cal, gamma, fuel, extra_pool=extra_pool)
        deepest = max((g.size for g in gamma), default=0)
        bump = svar(1)
        for _ in range(deepest + 1):
            bump = parse_formula(f"not({bump.text})", presets.cpl_signature())
        return base | {bump}

    monkeypatch.setattr(consequence, "closure_bounded", inflator)
    report = check_operator_laws(cpl, samples=40, fuel=Fuel(1, 10, 20000), seed=4)
    assert not report.entry("idempotence").ok


# -- structurality


def test_structural_identity_passes(cpl):
    report = check_structural(cpl, samples=10, fuel=Fuel(2, 12, 20000), seed=6)
    assert report.ok, report.render()


def test_structural_reports_an_image_that_is_not_rederived(cpl, monkeypatch):
    # the fake derives nothing at widened fuel, where the substituted
    # premises are closed, so every image goes missing
    def forgetful(cal, gamma, fuel, extra_pool=()):
        if fuel != base:
            return frozenset()
        return closure_bounded(cal, gamma, fuel, extra_pool=extra_pool)

    base = Fuel(2, 12, 20000)
    monkeypatch.setattr(consequence, "closure_bounded", forgetful)
    report = check_structural(cpl, samples=10, fuel=base, seed=6)
    for label in ("renaming-substitutions", "general-substitutions"):
        entry = report.entry(label)
        assert not entry.ok
        assert re.fullmatch(r"gamma=\{.+\} sigma-image \S.* not rederived", entry.witness), entry.witness


def test_structural_swap_renaming_example(cpl):
    # sigma = (x1 x2) swap over gamma = {x1, imp(x1, x2)}
    fuel = Fuel(2, 14, 20000)
    gamma_image = [f("x2"), f("imp(x2, x1)")]
    v = derives(cpl, gamma_image, f("x1"), fuel)
    assert v.is_derived


def test_structural_general_substitution_example(cpl):
    # sigma maps x1 to bot over gamma = {x1, imp(x1, x2)}
    fuel = Fuel(2, 14, 20000)
    gamma_image = [f("bot"), f("imp(bot, x2)")]
    assert derives(cpl, gamma_image, f("x2"), fuel).is_derived


# -- weakness relation


def test_weaker_than_reflexive(cpl):
    ev = weaker_than(cpl, cpl, corpus_depth=2, fuel=Fuel(1, 12, 20000))
    assert ev.status == "verified"


def test_fragment_weaker_than_full(imp_fragment, cpl):
    ev = weaker_than(imp_fragment, cpl, corpus_depth=3, fuel=Fuel(2, 14, 20000))
    assert ev.status == "verified"
    assert ev.detail.startswith("weaker-than verified-up-to depth=3 rounds=2 checked=")
    assert int(ev.detail.rsplit("checked=", 1)[1]) > 0


def test_cpl_not_weaker_than_rule_free(cpl, rule_free):
    ev = weaker_than(cpl, rule_free, corpus_depth=2, fuel=Fuel(1, 12, 20000))
    assert ev.status == "refuted" and not ev.ok
    assert ev.detail == "weaker-than refuted gamma={x1, imp(x1, x2)} phi=x2 image=x2"
    assert (ev.corpus_depth, ev.fuel) == (2, Fuel(1, 12, 20000))


def test_weaker_than_needs_language_inclusion(cpl):
    from ontoweave.errors import SignatureError

    other = CalculusPresentation(make_signature([("box", 1)]))
    with pytest.raises(SignatureError):
        weaker_than(cpl, other, 2, Fuel(1, 10, 1000))


# -- principles


def test_principles_cpl(cpl):
    report = check_principles(cpl, corpus_depth=2, fuel=Fuel(3, 24, 50000))
    assert report.entry("PNT").ok
    assert report.entry("PNC").ok
    assert report.entry("PPS").ok, report.entry("PPS").witness


def test_principles_rule_free_pnt_witness():
    rf = presets.rule_free(negation=Symbol("not", 1))
    report = check_principles(rf, corpus_depth=2, fuel=Fuel(1, 10, 4000))
    entry = report.entry("PNT")
    assert entry.ok
    assert "gamma={}" in entry.witness and "b=x1" in entry.witness


def test_principles_rule_free_pps_counter():
    rf = presets.rule_free(negation=Symbol("not", 1))
    report = check_principles(rf, corpus_depth=2, fuel=Fuel(1, 10, 4000))
    pps = report.entry("PPS")
    assert not pps.ok
    assert "a=x1" in pps.witness and "b=x2" in pps.witness


def test_principles_trivial_calculus_has_no_pnc_witness():
    # the axiom x1 derives every formula and its negation
    sig = make_signature([("not", 1)])
    trivial = CalculusPresentation(sig, axioms=[Rule("T", (), svar(1))], negation=Symbol("not", 1))
    report = check_principles(trivial, corpus_depth=2, fuel=Fuel(1, 10, 4000))
    assert [(e.label, e.ok) for e in report.entries] == [("PNT", False), ("PNC", False), ("PPS", True)]
    assert report.entry("PNC").witness == "no witness up to bound"


def test_principles_missing_negation():
    rf = presets.rule_free(negation=None)
    with pytest.raises(ConfigError):
        check_principles(rf, corpus_depth=1, fuel=Fuel(1, 10, 4000))


# -- the rule join against the plain nested-loop join it replaced
#
# The reference below is the earlier join, kept verbatim apart from taking
# the engine as an argument: every candidate goes through the matcher and
# costs one unit of work on its own. Its conclusion-only variables are
# filled as the pool-instantiation kernel (_Engine._fill) documents: one
# unit of work per pool value scanned, the old/new pool split, the tier
# thresholds, the break at the first value over the size budget, and, after
# the delta-driven joins, one join over the members only that fills them
# with a new pool value at each position in turn. The engine's join must
# stage the same set, stop (or not) at the same point and leave the same
# work budget, at every staging quota and work budget, cut or uncut.


def _reference_spend(eng) -> None:
    eng.work_left -= 1
    if eng.work_left <= 0:
        raise _StagingFull


def _reference_match(eng, pat, cand, bind, trail) -> bool:
    if pat.var is not None:
        bound = bind.get(pat.var)
        if bound is None:
            bind[pat.var] = cand
            trail.append(pat.var)
            return True
        return bound is cand
    if cand.var is not None or cand.head != pat.head:
        return False
    for p_child, c_child in zip(pat.args, cand.args):
        if not _reference_match(eng, p_child, c_child, bind, trail):
            return False
    return True


def _reference_rule_conclusions(eng, delta, staged, pool_sorted) -> None:
    if not delta or not eng.cal.rules:
        return
    delta_set = set(delta)
    delta_by_head = {}
    delta_bare = []
    for phi in delta:
        if phi.var is None:
            delta_by_head.setdefault(phi.head, []).append(phi)
        if phi.size <= eng.bare_cap:
            delta_bare.append(phi)

    for rule, plan in zip(eng.cal.rules, eng.cal._plans):
        n = len(plan)
        free = sorted(rule.conclusion.variables - set().union(*(p.variables for p in rule.premises)))
        occs = [sum(node.var == v for node in rule.conclusion.subformulas()) for v in free]
        vcap = eng.psize if len(free) <= 2 else eng.wide_psize

        def emit(bind, drive):
            concl = substitute(rule.conclusion, bind)
            if not free:
                if concl.size <= eng.size_cap:
                    eng._stage(staged, concl)
                return
            chosen = []

            def fill(i, remaining, first_new):
                if i == len(free):
                    eng._stage(staged, substitute(rule.conclusion, {**bind, **dict(zip(free, chosen))}))
                    return
                if i < first_new:
                    source = eng.pool_old
                elif i == first_new:
                    source = eng.pool_new
                else:
                    source = pool_sorted
                for value in source:
                    _reference_spend(eng)
                    cost = occs[i] * (value.size - 1)
                    if cost > remaining:
                        break
                    if value.size > vcap and value not in eng.seed_exempt:
                        continue
                    chosen.append(value)
                    fill(i + 1, remaining - cost, first_new)
                    chosen.pop()

            budget = eng.size_cap - concl.size
            if budget >= 0:
                for first_new in range(len(free)) if drive < 0 else (-1,):
                    fill(0, budget, first_new)

        def candidates(pat, from_delta, bind):
            if pat.var is not None and pat.var in bind:
                bound = bind[pat.var]
                if bound.size > eng.size_cap:
                    return ()
                if from_delta:
                    return (bound,) if bound in delta_set else ()
                return (bound,) if bound in eng.members else ()
            if pat.var is not None:
                return delta_bare if from_delta else eng.bare_candidates
            src = delta_by_head if from_delta else eng.by_head
            return src.get(pat.head, ())

        def join(i, drive, bind):
            if i == n:
                emit(bind, drive)
                return
            pat = rule.premises[plan[i]]
            for cand in candidates(pat, plan[i] == drive, bind):
                _reference_spend(eng)
                if cand.size > eng.size_cap:
                    continue
                trail = []
                if _reference_match(eng, pat, cand, bind, trail):
                    join(i + 1, drive, bind)
                for v in trail:
                    del bind[v]

        for drive in range(n):
            join(0, drive, {})
        if free and eng.pool_old and eng.pool_new:
            join(0, -1, {})


def _join_outcome(join, eng, delta, pool_sorted, quota, budget):
    """Staged set, whether the join stopped early, and the budget left."""
    eng.stage_quota = quota
    eng.work_left = budget
    staged = set()
    try:
        join(eng, delta, staged, pool_sorted)
    except _StagingFull:
        return staged, True, eng.work_left
    return staged, False, eng.work_left


def _compare_joins(cal, gamma, fuel, budgets_per_round=40):
    """Drive an engine through the rounds of closing gamma and, in each
    round, compare both joins uncut, at every staging quota up to the staged
    count, and at budgets spread over the work the uncut join does. Returns
    the number of comparisons cut by the quota and by the work budget."""
    eng = _Engine(cal, fuel, ())
    delta = eng._admit(sorted(set(gamma), key=lambda g: g.sort_key))
    quota_cuts = work_cuts = 0
    huge = 10**9
    for _ in range(fuel.max_closure_rounds):
        room = eng.set_cap - len(eng.members)
        if room <= 0 or not delta:
            break
        pool_sorted = sorted(eng.pool, key=lambda g: g.sort_key)
        full, raised, left = _join_outcome(
            _reference_rule_conclusions, eng, delta, pool_sorted, huge, huge
        )
        assert not raised
        spent = huge - left
        cuts = [(huge, huge), (huge, spent), (huge, spent + 1)]
        cuts += [(q, huge) for q in range(1, len(full) + 1)]
        step = max(1, spent // budgets_per_round)
        cuts += [(huge, b) for b in range(1, spent + 1, step)]
        for quota, budget in cuts:
            want = _join_outcome(_reference_rule_conclusions, eng, delta, pool_sorted, quota, budget)
            got = _join_outcome(_Engine._rule_conclusions, eng, delta, pool_sorted, quota, budget)
            assert got == want, (quota, budget)
            if want[1]:
                if want[2] == 0:
                    work_cuts += 1
                else:
                    quota_cuts += 1
        # advance the state as one round of _Engine.run does (these
        # calculi have no axioms)
        quota = 4 * room + 64
        staged, _, _ = _join_outcome(
            _Engine._rule_conclusions, eng, delta, pool_sorted, quota, 6 * quota + 4096
        )
        eng.pool_old = pool_sorted
        eng.pool_new = []
        delta = eng._admit(sorted(staged - eng.members, key=lambda g: g.sort_key))
    return quota_cuts, work_cuts


_JOIN_SIG = make_signature([("a", 0), ("b", 0), ("n", 1), ("f", 2)])
_A, _B = (apply_symbol(Symbol(c, 0)) for c in "ab")
_N, _F = Symbol("n", 1), Symbol("f", 2)


def _headed(inner):
    return st.one_of(
        st.builds(lambda x: apply_symbol(_N, (x,)), inner),
        st.builds(lambda x, y: apply_symbol(_F, (x, y)), inner, inner),
    )


def _patterns(leaves):
    """Patterns over the given leaves, at most two levels deep."""
    shallow = st.one_of(leaves, _headed(leaves))
    return st.one_of(shallow, _headed(shallow))


_LEAVES = [svar(1), svar(2), svar(3), _A, _B]
_PATTERNS = _patterns(st.sampled_from(_LEAVES))
_HEADED = _headed(_PATTERNS)


@st.composite
def _join_calculi(draw):
    rules = []
    for i in range(draw(st.integers(1, 3))):
        premises = draw(st.lists(_PATTERNS, max_size=2))
        if draw(st.integers(0, 3)):
            # a bare premise that is a direct argument of the last
            # structured one, and first among the bare ones in plan order:
            # the shape the look-ahead serves
            v, other = draw(st.sampled_from(_LEAVES[:3])), draw(_PATTERNS)
            shapes = [apply_symbol(_N, (v,)), apply_symbol(_F, (v, other)), apply_symbol(_F, (other, v))]
            premises.append(draw(st.sampled_from(shapes)))
            premises.insert(0, v)
        else:
            premises.append(draw(_HEADED))
        premises = tuple(premises)
        bound = sorted(set().union(*(p.variables for p in premises)))
        # conclusions mostly reuse premise variables; a few range over the pool
        if draw(st.integers(0, 3)):
            concl = draw(_patterns(st.sampled_from([svar(v) for v in bound] + [_A, _B])))
        else:
            concl = draw(_PATTERNS)
        rules.append(Rule(f"R{i}", premises, concl))
    return CalculusPresentation(_JOIN_SIG, rules=rules)


@st.composite
def _join_premise_sets(draw):
    gamma = draw(st.lists(_PATTERNS, min_size=1, max_size=8))
    # some direct arguments too, so that look-ahead candidates survive
    args = sorted({a for g in gamma for a in g.args}, key=lambda g: g.sort_key)
    if args:
        gamma += draw(st.lists(st.sampled_from(args), max_size=3))
    return gamma


@given(_join_calculi(), _join_premise_sets(), st.sampled_from([4, 7, 12]))
def test_join_matches_the_nested_loop_reference(cal, gamma, size_cap):
    _compare_joins(cal, gamma, Fuel(3, size_cap, 120))


def test_join_matches_the_reference_on_edge_shapes():
    # constants, a repeated variable, a variable at depth 2, a three-premise
    # rule and a conclusion-only variable, each beside a bare premise the
    # look-ahead uses
    p = lambda text: parse_formula(text, _JOIN_SIG)
    cal = CalculusPresentation(
        _JOIN_SIG,
        rules=(
            Rule("MP", (p("x1"), p("f(x1, x2)")), p("x2")),
            Rule("Rep", (p("f(x1, x1)"), p("x1")), p("n(x1)")),
            Rule("Deep", (p("f(n(x1), x2)"), p("x2")), p("f(x2, x1)")),
            Rule("Three", (p("n(x3)"), p("f(x1, x2)"), p("x2")), p("f(x3, a)")),
            Rule("Const", (p("f(a, x1)"), p("x1")), p("n(b)")),
            Rule("Pool", (p("n(x1)"), p("x1")), p("f(x2, x1)")),
        ),
    )
    assert all(any(k is not None for k in levels) for levels in cal._lookahead)
    gamma = [p(t) for t in ("a", "b", "f(a, b)", "f(b, b)", "n(a)", "f(n(a), b)", "f(b, n(b))")]
    quota_cuts, work_cuts = _compare_joins(cal, gamma, Fuel(3, 9, 400), budgets_per_round=400)
    assert quota_cuts and work_cuts
    # a cap small enough that look-ahead arguments go over it
    _compare_joins(cal, gamma, Fuel(3, 4, 400), budgets_per_round=400)


def test_join_matches_the_reference_as_the_pool_grows():
    # at size 16 the pool takes size-2 values: N adds n(b) in round 1, so in
    # round 2 the old premise n(a) of Pool meets it in the members-only
    # join, and Wide's three conclusion-only variables skip it (tier 1)
    p = lambda text: parse_formula(text, _JOIN_SIG)
    cal = CalculusPresentation(
        _JOIN_SIG,
        rules=(
            Rule("N", (p("f(x1, b)"),), p("n(x1)")),
            Rule("Pool", (p("n(x1)"),), p("f(x2, x1)")),
            Rule("Wide", (p("f(b, a)"),), p("f(x1, f(x2, x3))")),
        ),
    )
    gamma = [p("n(a)"), p("f(b, b)"), p("f(b, a)")]
    quota_cuts, work_cuts = _compare_joins(cal, gamma, Fuel(2, 16, 2000))
    assert quota_cuts and work_cuts


# -- axiom instantiation and admission against their plain forms
#
# The reference below is the earlier axiom loop, apart from taking the
# engine as an argument and substituting without the instance memo: one
# recursive call per position, one _spend per value scanned and one _stage
# per instance. The engine's loop must stage the same set, stop (or not) at
# the same point and leave the same work budget and closed-axiom flag, at
# every staging quota and work budget, cut or uncut.


def _reference_axiom_conclusions(eng, staged, all_sorted) -> None:
    old_sorted = eng.pool_old
    new_sorted = eng.pool_new
    exempt = eng.seed_exempt
    for schema, varlist, occs in eng.cal._axiom_meta:
        if not varlist:
            if not eng.emitted_closed_axioms and schema.size <= eng.size_cap:
                eng._stage(staged, schema)
            continue
        budget = eng.size_cap - schema.size
        if budget < 0:
            continue
        n = len(varlist)
        vcap = eng.psize if n <= 2 else eng.wide_psize
        chosen = []

        def rec(pos, remaining, first_new):
            if pos == n:
                eng._stage(staged, substitute(schema, dict(zip(varlist, chosen))))
                return
            if pos < first_new:
                source = old_sorted
            elif pos == first_new:
                source = new_sorted
            else:
                source = all_sorted
            occ = occs[pos]
            for value in source:
                eng._spend()
                cost = occ * (value.size - 1)
                if cost > remaining:
                    break
                if value.size > vcap and value not in exempt:
                    continue
                chosen.append(value)
                rec(pos + 1, remaining - cost, first_new)
                chosen.pop()

        for first_new in range(n):
            rec(0, budget, first_new)
    eng.emitted_closed_axioms = True


def _drive_rounds(eng, gamma, each_round=lambda pool_sorted: None, each_admit=lambda: None):
    """Close gamma round by round as _Engine.run does without a goal,
    calling each_round with the round's sorted pool before the round
    generates, and each_admit after every admission; returns the members."""

    def admit(batch):
        added = eng._admit(batch)
        each_admit()
        return added

    delta = admit(_canonical(gamma))
    for _ in range(eng.fuel.max_closure_rounds):
        room = eng.set_cap - len(eng.members)
        if room <= 0:
            break
        pool_sorted = _canonical(eng.pool)
        each_round(pool_sorted)
        eng.stage_quota = 4 * room + 64
        staged = set()
        try:
            eng.work_left = 6 * eng.stage_quota + 4096
            eng._rule_conclusions(delta, staged, pool_sorted)
        except _StagingFull:
            pass
        try:
            eng.work_left = 6 * eng.stage_quota + 4096
            eng._axiom_conclusions(staged, pool_sorted)
        except _StagingFull:
            pass
        eng.pool_old = pool_sorted
        eng.pool_new = []
        fresh = _canonical(staged - eng.members)
        if not fresh:
            break
        delta = admit(fresh)
    return frozenset(eng.members)


def _axiom_outcome(conclusions, eng, pool_sorted, quota, budget, closed_done):
    """Staged set, whether the loop stopped early, the budget left and the
    closed-axiom flag, from a start with closed_done as that flag."""
    eng.stage_quota = quota
    eng.work_left = budget
    eng.emitted_closed_axioms = closed_done
    staged = set()
    try:
        conclusions(eng, staged, pool_sorted)
    except _StagingFull:
        return staged, True, eng.work_left, eng.emitted_closed_axioms
    return staged, False, eng.work_left, eng.emitted_closed_axioms


def _compare_axiom_loops(cal, gamma, fuel, seeds=(), budgets_per_round=40):
    """In every round of closing gamma, compare both axiom loops uncut, at
    every staging quota up to the staged count, and at budgets spread over
    the work the uncut loop does. Returns the number of comparisons cut by
    the quota and by the work budget."""
    eng = _Engine(cal, fuel, seeds)
    huge = 10**9
    cuts_seen = [0, 0]

    def each_round(pool_sorted):
        closed_done = eng.emitted_closed_axioms
        full, raised, left, _ = _axiom_outcome(
            _reference_axiom_conclusions, eng, pool_sorted, huge, huge, closed_done
        )
        assert not raised
        spent = huge - left
        cuts = [(huge, huge), (huge, spent), (huge, spent + 1)]
        cuts += [(q, huge) for q in range(1, len(full) + 1)]
        step = max(1, spent // budgets_per_round)
        cuts += [(huge, b) for b in range(1, spent + 1, step)]
        for quota, budget in cuts:
            want = _axiom_outcome(_reference_axiom_conclusions, eng, pool_sorted, quota, budget, closed_done)
            got = _axiom_outcome(_Engine._axiom_conclusions, eng, pool_sorted, quota, budget, closed_done)
            assert got == want, (quota, budget)
            if want[1]:
                cuts_seen[want[2] != 0] += 1
        eng.emitted_closed_axioms = closed_done

    members = _drive_rounds(eng, gamma, each_round)
    assert members == _Engine(cal, fuel, seeds).run(_canonical(gamma))[0]
    work_cuts, quota_cuts = cuts_seen
    return quota_cuts, work_cuts


@pytest.mark.parametrize("name", ["cpl", "implication_fragment"])
def test_axiom_loop_matches_the_reference_on_the_presets(name):
    cal = getattr(presets, name)()
    x1, x2 = svar(1), svar(2)
    imp = Symbol("imp", 2)
    gamma = [apply_symbol(imp, (x1, x2)), x1]
    goal = apply_symbol(imp, (apply_symbol(imp, (x2, x1)), apply_symbol(imp, (x1, x1))))
    quota_cuts, work_cuts = _compare_axiom_loops(cal, gamma, Fuel(2, 16, 300), seeds=(goal,))
    assert quota_cuts and work_cuts


def _schema_over(n):
    """A schema whose variables are exactly x1..xn: a pattern over them and
    the constants, paired by f with each variable it leaves out."""
    variables = [svar(v) for v in range(1, n + 1)]

    def cover(pattern):
        for x in variables:
            if x.var not in pattern.variables:
                pattern = apply_symbol(_F, (pattern, x))
        return pattern

    return _patterns(st.sampled_from(variables + [_A, _B])).map(cover)


@st.composite
def _axiom_calculi(draw):
    axioms = [Rule(f"Ax{n}", (), draw(_schema_over(n))) for n in range(4)]
    rules = [Rule("MP", (svar(1), apply_symbol(_F, (svar(1), svar(2)))), svar(2))]
    return CalculusPresentation(_JOIN_SIG, axioms=axioms, rules=rules)


@settings(max_examples=12, deadline=None)
@given(_axiom_calculi(), _join_premise_sets(), st.lists(_PATTERNS, max_size=1), st.sampled_from([9, 16]))
def test_axiom_loop_matches_the_reference(cal, gamma, seeds, size_cap):
    # at 16 the pool holds size-2 values, and three-variable schemas draw
    # only size-1 values unless a seed supplies them
    _compare_axiom_loops(cal, gamma, Fuel(2, size_cap, 80), seeds=tuple(seeds))


@pytest.mark.parametrize("name", ["cpl", "implication_fragment"])
def test_admission_keeps_the_pool_to_small_subtrees_of_members(name):
    cal = getattr(presets, name)()
    fuel = Fuel(3, 24, 400)
    imp = Symbol("imp", 2)
    x1, x2, x3 = svar(1), svar(2), svar(3)
    gamma = [apply_symbol(imp, (x1, apply_symbol(imp, (x2, x3)))), apply_symbol(imp, (x1, x2)), x1]
    goal = apply_symbol(imp, (apply_symbol(imp, (x3, x3)), x2))
    eng = _Engine(cal, fuel, (goal,))
    seeds = set(eng.pool)
    # the pool as _Engine.run last emptied pool_new; the engine starts
    # with the seeds in pool_new
    since_reset = set()
    admissions = []

    def each_round(pool_sorted):
        since_reset.clear()
        since_reset.update(eng.pool)

    def each_admit():
        small = {sub for phi in eng.members for sub in phi.subformulas() if sub.size <= eng.psize}
        assert eng.pool == seeds | small
        assert tuple(eng.pool_new) == _canonical(eng.pool_new)
        assert set(eng.pool_new) == eng.pool - since_reset
        admissions.append(len(eng.members))

    # frontiers cached at another bound first, so admission replaces them
    original_admit = eng._admit

    def admit_after_warming(batch):
        for phi in batch:
            phi.frontier(eng.psize + 1)
        return original_admit(batch)

    eng._admit = admit_after_warming
    members = _drive_rounds(eng, gamma, each_round, each_admit)
    assert len(admissions) >= 3 and admissions[-1] > admissions[0]
    assert members == _Engine(cal, fuel, (goal,)).run(_canonical(gamma))[0]


# -- the engine against the round operator it promises
#
# The reference applies F literally: no delta, no memo and no old/new pool
# split, only the restrictions the engine documents. The pool is every
# subformula of at most pool_size nodes, the base variables, the constants
# and the seeds' subformulas; a schema with three or more pool-filled
# variables draws values of at most wide_pool_size nodes, seeds exempt;
# premise instances and instances have at most max_formula_size nodes, and a
# bare premise whose variable is in no structured premise at most bare_size.


def _literal_match(pat, phi, bind):
    """bind extended so that pat under it is phi, or None."""
    if pat.var is not None:
        if pat.var in bind:
            return bind if bind[pat.var] is phi else None
        return {**bind, pat.var: phi}
    if phi.var is not None or phi.head != pat.head:
        return None
    for p_child, child in zip(pat.args, phi.args):
        bind = _literal_match(p_child, child, bind)
        if bind is None:
            return None
    return bind


def _literal_round(cal, fuel, seeds, current):
    """F(current): current with every axiom and rule instance it admits."""
    size_cap = fuel.max_formula_size
    exempt = {node for phi in seeds for node in phi.subformulas()}
    schemas = [s for r in cal.axioms + cal.rules for s in r.schemas()]
    base = max((2, *(v for s in schemas for v in s.variables)))
    pool = {node for phi in current for node in phi.subformulas() if node.size <= fuel.pool_size}
    pool |= exempt | {svar(i) for i in range(1, base + 1)}
    pool |= {apply_symbol(c) for c in cal.sig.constants()}

    tiers = (fuel.pool_size, fuel.wide_pool_size)
    narrow, wide = ([v for v in pool if v.size <= tier or v in exempt] for tier in tiers)

    def instances(schema, bind, free):
        for chosen in product(narrow if len(free) <= 2 else wide, repeat=len(free)):
            inst = substitute(schema, {**bind, **dict(zip(free, chosen))})
            if inst.size <= size_cap:
                yield inst

    out = set(current)
    for axiom in cal.axioms:
        out.update(instances(axiom.conclusion, {}, sorted(axiom.conclusion.variables)))
    premise_instances = [phi for phi in current if phi.size <= size_cap]
    for rule in cal.rules:
        structured = set().union(*(p.variables for p in rule.premises if p.var is None))
        binds = [{}]
        for pat in rule.premises:
            if pat.var is not None and pat.var not in structured:
                cands = [phi for phi in premise_instances if phi.size <= fuel.bare_size]
            else:
                cands = premise_instances
            matches = (_literal_match(pat, phi, bind) for bind in binds for phi in cands)
            binds = [bind for bind in matches if bind is not None]
        free = sorted(rule.conclusion.variables - set().union(*(p.variables for p in rule.premises)))
        for bind in binds:
            out.update(instances(rule.conclusion, bind, free))
    return out


@st.composite
def _oracle_calculi(draw):
    widths = draw(st.lists(st.integers(0, 3), max_size=2))
    axioms = [Rule(f"Ax{i}", (), draw(_schema_over(n))) for i, n in enumerate(widths)]
    rules = []
    for i in range(draw(st.integers(1, 2))):
        premises = tuple(draw(st.lists(_PATTERNS, min_size=1, max_size=2)))
        # conclusion variables outside the premises range over the pool
        concl = draw(_schema_over(draw(st.integers(0, 4))))
        rules.append(Rule(f"R{i}", premises, concl))
    return CalculusPresentation(_JOIN_SIG, axioms=axioms, rules=rules)


@settings(max_examples=100, deadline=None)
@given(
    _oracle_calculi(),
    st.lists(_PATTERNS, min_size=1, max_size=3),
    st.lists(_PATTERNS, max_size=1),
    st.sampled_from([(16, 2), (16, 3), (24, 2)]),
)
def test_closure_is_the_iterated_round_operator(cal, gamma, seeds, caps):
    # below size 9 the pool holds leaves only and never grows; three
    # rounds at size 24 take seconds where a pool-filled rule meets a
    # two-variable axiom
    size_cap, rounds = caps
    fuel = Fuel(rounds, size_cap, 100_000)
    cuts = []

    class Counted(_StagingFull):
        def __init__(self):
            cuts.append(1)

    with pytest.MonkeyPatch.context() as m:
        # the raise and the except both look the name up at run time
        m.setattr(consequence, "_StagingFull", Counted)
        members, _ = _Engine(cal, fuel, seeds).run(_canonical(gamma))
    assume(not cuts and len(members) < fuel.max_set_size)
    want = set(gamma)
    for _ in range(rounds):
        want = _literal_round(cal, fuel, seeds, want)
    assert members == want


# -- the engine against the logic: every answer it gives must be sound


def _falsified(gamma, formulas):
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


def _unsound(name, gamma, formulas):
    """The formulas that do not follow from gamma in the logic that preset
    name presents. cpl is complete for truth tables, and the implication
    fragment presents intuitionistic implication, whose theorems are
    classical ones; over conj, phi follows exactly when gamma holds every
    variable of phi."""
    if name == "conj":
        own = frozenset().union(*(premise.variables for premise in gamma))
        return [phi for phi in formulas if not phi.variables <= own]
    return _falsified(gamma, formulas)


@pytest.mark.parametrize("name", ["cpl", "implication_fragment", "conj"])
@settings(max_examples=40)
@given(data=st.data())
def test_every_member_and_derived_goal_follows_in_the_logic(name, data):
    # the CLI default fuel, whose set cap binds over cpl, and a small fuel
    cal = getattr(presets, name)()
    corpus = enumerate_formulas(cal.sig, 2, 2)
    gamma = data.draw(st.lists(st.sampled_from(corpus), max_size=2, unique=True), "gamma")
    fuel = data.draw(st.sampled_from([Fuel(), Fuel(3, 12, 64)]), "fuel")
    assert _unsound(name, gamma, closure_bounded(cal, gamma, fuel)) == []
    derived = [phi for phi in corpus if derives(cal, gamma, phi, fuel).is_derived]
    assert _unsound(name, gamma, derived) == []


def test_the_soundness_deciders_refuse_what_does_not_follow():
    cpl_sig, conj_sig = presets.cpl_signature(), presets.conj().sig
    f = lambda text: parse_formula(text, cpl_sig)
    assert _unsound("cpl", [], [f("imp(x1, x1)"), f("x1"), f("imp(bot, x1)")]) == [
        f("x1"), f("imp(bot, x1)")
    ]
    assert _unsound("cpl", [f("bot"), f("not(bot)")], [f("x2")]) == []
    assert _unsound("cpl", [f("x1"), f("imp(x1, x2)")], [f("x2"), f("not(x2)")]) == [f("not(x2)")]
    g = lambda text: parse_formula(text, conj_sig)
    assert _unsound("conj", [g("and(x1, x2)")], [g("and(x2, x1)"), g("x3")]) == [g("x3")]


# -- sound two-valued matrices: derives answers what they separate without
# running the engine


def _literal_value(phi, tables, env):
    """phi's value: a variable's or an atom's from env, otherwise its head's
    table at the row its arguments' values spell in binary, first argument
    first."""
    if phi in env:
        return env[phi]
    row = "".join(str(_literal_value(a, tables, env)) for a in phi.args)
    return tables[phi.head][int(row or "0", 2)]


def _literally_sound(rules, tables):
    """Whether every valuation that designates a rule's premises designates
    its conclusion, for every rule, tried one valuation at a time."""
    for rule in rules:
        variables = sorted(set().union(*(s.variables for s in rule.schemas())))
        for values in product((0, 1), repeat=len(variables)):
            env = {svar(v): value for v, value in zip(variables, values)}
            if all(_literal_value(p, tables, env) for p in rule.premises):
                if not _literal_value(rule.conclusion, tables, env):
                    return False
    return True


def _literal_matrices(cal):
    """Every candidate over the symbols cal's schemas mention, in table
    order, that is literally sound."""
    rules = cal.axioms + cal.rules
    symbols = sorted({n.head for r in rules for s in r.schemas() for n in s.subformulas() if n.var is None})
    found = []
    for chosen in product(*(product((0, 1), repeat=2**sym.arity) for sym in symbols)):
        tables = dict(zip(symbols, chosen))
        if _literally_sound(rules, tables):
            found.append(tuple(tables.items()))
    return tuple(found)


_IMP, _NOT = Symbol("imp", 2), Symbol("not", 1)


def test_the_presets_get_their_classical_tables(cpl, imp_fragment, conj):
    # cpl does not axiomatize bot, so bot gets no table and stays an atom
    assert consequence.sound_matrices(cpl) == (((_IMP, (1, 1, 0, 1)), (_NOT, (1, 0))),)
    assert consequence.sound_matrices(imp_fragment) == (((_IMP, (1, 1, 0, 1)),),)
    assert consequence.sound_matrices(conj) == (((Symbol("and", 2), (0, 0, 0, 1)),),)
    for cal in (cpl, imp_fragment, conj):
        assert consequence.sound_matrices(cal) == _literal_matrices(cal)


def test_an_axiom_that_is_a_bare_variable_leaves_no_matrix(cpl):
    ex_falso = CalculusPresentation(cpl.sig, [Rule("X", (), f("x1"))], cpl.rules)
    assert consequence.sound_matrices(ex_falso) == ()
    assert consequence.separating_matrix(ex_falso, (), f("x1")) is None
    # a calculus with neither axioms nor rules has one matrix, with no table
    assert consequence.sound_matrices(presets.rule_free()) == ((),)


@settings(max_examples=40)
@given(_oracle_calculi())
def test_the_search_finds_exactly_the_literally_sound_matrices(cal):
    found = consequence.sound_matrices(cal)
    assert found == _literal_matrices(cal)
    for matrix in found:
        assert _literally_sound(cal.axioms + cal.rules, dict(matrix))


def _check_separation(cal, gamma, phi, separation):
    """The matrix is literally sound, and the valuation names every atom
    of the query and designates gamma but not phi."""
    matrix, valuation = separation
    tables = dict(matrix)
    assert _literally_sound(cal.axioms + cal.rules, tables)
    assert all(_literal_value(g, tables, valuation) for g in gamma)
    assert not _literal_value(phi, tables, valuation)


_PRESET_CORPORA = {
    name: enumerate_formulas(getattr(presets, name)().sig, 2, 2)
    for name in ("cpl", "implication_fragment", "conj")
}


@st.composite
def _queries(draw):
    """A calculus from the oracle's draw or a preset, premises, a goal."""
    name = draw(st.sampled_from(["random", "cpl", "implication_fragment", "conj"]))
    if name == "random":
        cal = draw(_oracle_calculi())
        return cal, draw(st.lists(_PATTERNS, max_size=3)), draw(_PATTERNS)
    corpus = st.sampled_from(_PRESET_CORPORA[name])
    return getattr(presets, name)(), draw(st.lists(corpus, max_size=2)), draw(corpus)


@settings(max_examples=120)
@given(
    _queries(),
    st.builds(Fuel, st.integers(1, 2), st.integers(4, 12), st.sampled_from([8, 24, 64])),
)
def test_derives_is_the_engine_with_separated_goals_unreached(query, fuel):
    cal, gamma, phi = query
    checked = consequence._check_gamma(cal, gamma, fuel)
    _, found = _Engine(cal, fuel, (phi,)).run(checked, watch=phi)
    assert derives(cal, gamma, phi, fuel) == (NotDerivedWithin(fuel) if found is None else Derived(found))
    separation = consequence.separating_matrix(cal, checked, phi)
    event(f"derived={found is not None} separated={separation is not None}")
    if separation is not None:
        _check_separation(cal, checked, phi, separation)
        assert _Engine(cal, fuel.escalated(), (phi,)).run(checked, watch=phi)[1] is None


@pytest.fixture
def engine_runs(monkeypatch):
    """The number of _Engine.run calls made so far."""
    runs = []
    run = _Engine.run

    def counted(self, *args, **kwargs):
        runs.append(1)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(_Engine, "run", counted)
    return runs


def test_a_separated_goal_runs_no_engine(cpl, engine_runs):
    assert derives(cpl, (), f("x1"), Fuel()) == NotDerivedWithin(Fuel())
    # bot is an atom: no sound matrix fixes its value
    assert derives(cpl, [f("x1")], f("imp(bot, x2)"), Fuel()) == NotDerivedWithin(Fuel())
    assert not engine_runs
    matrix, valuation = consequence.separating_matrix(cpl, [f("x1")], f("imp(bot, x2)"))
    assert valuation == {f("x1"): 1, f("x2"): 0, f("bot"): 1}


def test_a_formula_whose_head_no_schema_mentions_is_an_atom(cpl, fuel, engine_runs):
    sig = make_signature([("bot", 0), ("not", 1), ("imp", 2), ("box", 1)])
    cal = CalculusPresentation(sig, cpl.axioms, cpl.rules, cpl.negation)
    g = lambda text: parse_formula(text, sig)
    assert consequence.sound_matrices(cal) == consequence.sound_matrices(cpl)
    _, valuation = consequence.separating_matrix(cal, [g("box(imp(x1, x1))")], g("box(x1)"))
    assert valuation == {g("box(x1)"): 0, g("box(imp(x1, x1))"): 1}
    assert derives(cal, [g("box(imp(x1, x1))")], g("box(x1)"), fuel) == NotDerivedWithin(fuel)
    assert not engine_runs
    goal = g("imp(box(not(x2)), x1)")
    assert consequence.separating_matrix(cal, [g("x1")], goal) is None
    assert derives(cal, [g("x1")], goal, fuel) == Derived(2)
    assert len(engine_runs) == 1


def test_a_goal_deeper_than_the_recursion_limit_is_checked(cpl):
    phi = svar(1)
    for _ in range(3000):
        phi = apply_symbol(_NOT, (phi,))
    fuel = Fuel(2, 12, 64)
    assert consequence.separating_matrix(cpl, [], phi) is not None
    assert derives(cpl, [], phi, fuel) == NotDerivedWithin(fuel)
    assert derives(cpl, [phi], phi, fuel) == Derived(0)


def test_a_goal_no_matrix_separates_runs_the_engine(cpl, fuel, engine_runs):
    gamma = [f("x1"), f("not(x1)")]
    assert consequence.separating_matrix(cpl, gamma, f("x2")) is None
    assert derives(cpl, gamma, f("x2"), fuel).is_derived
    assert len(engine_runs) == 1


def _over_the_cap():
    """A presentation whose candidates, one whose rule's valuations, and
    one with a matrix but a query whose valuations, exceed MATRIX_CAP;
    each with a goal a matrix within the cap would separate."""
    sig = make_signature([("g", 4), ("h", 1)])
    x = [svar(i) for i in range(1, 14)]
    g = lambda *args: apply_symbol(Symbol("g", 4), args)
    h = lambda arg: apply_symbol(Symbol("h", 1), (arg,))
    wide = CalculusPresentation(sig, rules=[Rule("G", (g(*x[:4]),), x[0])])
    chain = x[0]
    for v in x[1:]:
        chain = g(chain, v, v, v)
    many = CalculusPresentation(make_signature([("g", 4)]), rules=[Rule("M", (chain,), x[0])])
    plain = CalculusPresentation(sig, rules=[Rule("H", (h(x[0]),), x[0])])
    return [(wide, [], x[1]), (many, [], x[1]), (plain, x[1:], x[0])]


@pytest.mark.parametrize("case", range(3))
def test_over_the_matrix_cap_derives_runs_the_engine(case, engine_runs):
    cal, gamma, phi = _over_the_cap()[case]
    assert consequence.separating_matrix(cal, gamma, phi) is None
    fuel = Fuel(2, 12, 64)
    want, _ = _Engine(cal, fuel, (phi,)).run(consequence._check_gamma(cal, gamma, fuel), watch=phi)
    engine_runs.clear()
    assert derives(cal, gamma, phi, fuel) == NotDerivedWithin(fuel)
    assert len(engine_runs) == 1
    # h(x1) |- x1 leaves h(0) = 0 and h(1) free
    h = Symbol("h", 1)
    assert consequence.sound_matrices(cal) == (() if case < 2 else (((h, (0, 0)),), ((h, (0, 1)),)))


def test_the_strict_xfail_goals_are_valid_so_no_matrix_separates_them(cpl):
    assert consequence.separating_matrix(cpl, [f("bot")], f("imp(x2, x2)")) is None
    sig = make_signature([("bot", 0), ("not", 1), ("imp", 2)] + [(f"c{i}", 0) for i in range(1, 7)])
    six = CalculusPresentation(sig, cpl.axioms, cpl.rules, cpl.negation)
    assert consequence.sound_matrices(six) == consequence.sound_matrices(cpl)
    assert consequence.separating_matrix(six, (), f("imp(not(x1), imp(x1, x2))", sig)) is None


def test_a_thousand_distinct_presentations_keep_the_memo_within_its_budget(monkeypatch):
    memo = Memo(100)
    monkeypatch.setattr(syntax, "MEMO", memo)
    sig = presets.implication_fragment().sig
    mp = Rule("MP", (f("x1", sig), f("imp(x1, x2)", sig)), f("x2", sig))
    fuel = Fuel(2, 8, 16)
    for i in range(1000):
        cal = CalculusPresentation(sig, [Rule(f"K{i}", (), f("imp(x1, imp(x2, x1))", sig))], [mp])
        assert derives(cal, (), f("x1", sig), fuel) == NotDerivedWithin(fuel)
        assert derives(cal, [f("x2", sig)], f("imp(x1, x2)", sig), fuel) == Derived(2)
        assert memo.slots == memo_slots(memo) <= 100
    assert (consequence.sound_matrices, cal) in memo.table


def test_derives_answers_alike_from_a_cold_and_a_warm_memo(cold_memo, monkeypatch):
    rng = random.Random(12)
    queries = []
    for name, corpus in _PRESET_CORPORA.items():
        cal = getattr(presets, name)()
        queries += [(cal, rng.sample(corpus, rng.randint(0, 2)), rng.choice(corpus)) for _ in range(30)]
    fuel = Fuel(2, 12, 64)

    def answers():
        return [derives(cal, gamma, phi, fuel) for cal, gamma, phi in queries]

    cold = answers()
    assert len(cold_memo.table) == 3  # one search per presentation
    assert any(v.is_derived for v in cold) and not all(v.is_derived for v in cold)
    assert answers() == cold
    monkeypatch.setattr(syntax, "MEMO", Memo(MEMO_SLOTS))
    assert answers() == cold


# -- derives stops at its goal: the deciding round is decided unadmitted,
# and ends where the goal is staged once the count of formulas that could
# sort before it fits the room


def _formulas_up_to(sig, variables, n):
    """Every formula of at most n nodes over sig and x1..x<variables>,
    built size by size."""
    by_size = {1: [svar(v) for v in range(1, variables + 1)] + [apply_symbol(c) for c in sig.constants()]}
    for size in range(2, n + 1):
        made = []
        for sym in sig.symbols():
            for parts in product(range(1, size), repeat=sym.arity):
                if sum(parts) == size - 1:
                    made += [apply_symbol(sym, args) for args in product(*(by_size[p] for p in parts))]
        by_size[size] = made
    return {phi for made in by_size.values() for phi in made}


@pytest.mark.parametrize(
    "decls",
    [
        [("a", 0)],
        [("n", 1)],
        [("bot", 0), ("not", 1), ("imp", 2)],
        [("h", 3)],
        [("a", 0), ("b", 0), ("n", 1), ("h", 3)],
        [("a", 0), ("n", 1), ("f", 2), ("h", 3)],
    ],
)
def test_the_formula_count_is_the_number_of_formulas_enumerated(decls):
    sig = make_signature(decls)
    for variables in (1, 2, 3):
        leaves = variables + len(sig.constants())
        for n in range(1, 7):
            want = len(_formulas_up_to(sig, variables, n))
            assert consequence._formula_count(sig, leaves, n, 10**9) == want
            # saturated at the cap, whether it is below, at or above the count
            for cap in (1, want - 1, want, want + 1):
                if cap >= 1:
                    assert consequence._formula_count(sig, leaves, n, cap) == min(want, cap)


def test_the_formula_count_stops_at_its_cap_on_a_large_goal(cpl):
    # a 3000-node goal over cpl's signature: binary imp passes 50,001 within
    # a few sizes, and one unary symbol adds the leaves at every size
    assert consequence._formula_count(cpl.sig, 4, 3000, 50_001) == 50_001
    unary = make_signature([("n", 1)])
    assert consequence._formula_count(unary, 3, 3000, 50_001) == 9000


_STOP_PATHS = ("mid-round stop", "fresh and fits", "rank admitted", "rank overflow", "last round", "full round")


def _stop_path(cal, gamma, phi, fuel):
    """Checks that derives and the watched engine answer with the first
    round in which the unwatched loop (_drive_rounds) admits phi, and
    returns the path by which the watched run stopped."""
    checked = consequence._check_gamma(cal, gamma, fuel)
    eng = _Engine(cal, fuel, (phi,))
    batches = []  # (room, batch) per admission, the premises first
    admit = eng._admit

    def recorded(batch):
        batches.append((eng.set_cap - len(eng.members), batch))
        return admit(batch)

    held = []
    eng._admit = recorded
    _drive_rounds(eng, checked, each_admit=lambda: held.append(phi in eng.members))
    depth = held.index(True) if True in held else None
    want = NotDerivedWithin(fuel) if depth is None else Derived(depth)
    assert derives(cal, gamma, phi, fuel) == want
    stops = []

    class Counted(consequence._GoalStaged):
        def __init__(self):
            stops.append(1)

    with pytest.MonkeyPatch.context() as m:
        # the raise and the except both look the name up at run time
        m.setattr(consequence, "_GoalStaged", Counted)
        _, found = _Engine(cal, fuel, (phi,)).run(checked, watch=phi)
    assert found == depth
    if depth == 0:
        return "premise"
    if phi.size > fuel.max_formula_size:
        return "over the size cap"
    if stops:
        return "mid-round stop"
    last = fuel.max_closure_rounds
    for round_no, (room, batch) in enumerate(batches[1:], start=1):
        if phi in batch:
            if len(batch) <= room:
                return "fresh and fits"
            return "rank admitted" if depth else "rank overflow"
        if round_no == last or len(batch) >= room:
            return "last round" if round_no == last else "full round"
    return "no fresh formula"


_FUELS_THE_SET_CAP_BINDS = st.builds(Fuel, st.integers(1, 3), st.integers(4, 12), st.sampled_from([8, 24, 64]))


def test_derives_stops_at_the_round_the_unwatched_loop_admits_its_goal():
    reached = set()
    conj, cpl = presets.conj(), presets.cpl()
    g = lambda text: f(text, conj.sig)

    # one query per path, in _STOP_PATHS order, each found by a seeded
    # search over these draws
    @settings(max_examples=150, deadline=None)
    @given(_queries(), _FUELS_THE_SET_CAP_BINDS)
    @example((conj, [g("and(x1, x2)")], g("x1")), Fuel(2, 12, 64))
    @example((cpl, [f("not(x1)")], f("imp(x1, x1)")), Fuel(3, 8, 64))
    @example((cpl, [f("x2")], f("imp(x2, x2)")), Fuel(3, 9, 64))
    @example((cpl, [f("x1"), f("x2")], f("imp(bot, x2)")), Fuel(2, 9, 64))
    # exactly room fresh formulas sort before the goal in round 2
    @example((cpl, [f("x1")], f("imp(bot, x1)")), Fuel(2, 9, 64))
    @example((cpl, [], f("bot")), Fuel(1, 9, 64))
    @example((cpl, [], f("x1")), Fuel(3, 12, 8))
    def check(query, fuel):
        path = _stop_path(*query, fuel)
        event(path)
        reached.add(path)

    check()
    assert reached >= set(_STOP_PATHS)


def _calls(monkeypatch, name):
    """The argument tuples of every _Engine.<name> call made so far."""
    calls = []
    method = getattr(_Engine, name)

    def counted(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(_Engine, name, counted)
    return calls


def test_a_goal_among_the_premises_builds_no_engine_and_asks_no_matrix(cpl, monkeypatch):
    built, checks = [], []
    init, check = _Engine.__init__, consequence.separating_matrix

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    def counted_check(*args):
        checks.append(args)
        return check(*args)

    monkeypatch.setattr(_Engine, "__init__", counted_init)
    monkeypatch.setattr(consequence, "separating_matrix", counted_check)
    fuel = Fuel(2, 4, 3)
    small, big = f("imp(x1, x2)"), f("imp(x1, imp(x2, x1))")
    assert big.size > fuel.max_formula_size
    # the answer _Engine.run gives, whatever the goal's size
    for gamma, phi in (([f("x1"), small], small), ([big], big), ([small, big, big], big)):
        assert derives(cpl, gamma, phi, fuel) == Derived(0)
    assert built == checks == []
    # the premises are still checked first
    with pytest.raises(CapExceeded, match="^premise set larger than the set cap 3$"):
        derives(cpl, [f("x1"), f("x2"), f("x3"), small], small, fuel)
    outside = parse_formula("box(x1)", make_signature([("box", 1)]))
    with pytest.raises(LanguageError):
        derives(cpl, [outside], outside, fuel)
    assert built == checks == []


def test_a_goal_a_rule_stages_ends_its_round(cpl, monkeypatch):
    axiom_rounds, admissions = _calls(monkeypatch, "_axiom_conclusions"), _calls(monkeypatch, "_admit")
    gamma = [f("x1"), f("imp(x1, x2)")]
    assert derives(cpl, gamma, f("x2"), Fuel()) == Derived(1)
    # modus ponens stages x2 before any axiom is instantiated, and round 1
    # is decided without admitting it
    assert axiom_rounds == []
    assert admissions == [(tuple(gamma),)]


def test_a_bounded_negative_admits_nothing_in_its_last_round(cpl, monkeypatch):
    fuel = Fuel(2, 16, 50_000)
    admissions = _calls(monkeypatch, "_admit")
    assert consequence.separating_matrix(cpl, [f("bot")], f("imp(x2, x2)")) is None
    assert derives(cpl, [f("bot")], f("imp(x2, x2)"), fuel) == NotDerivedWithin(fuel)
    # the premises, then round 1: round 2 is the last
    assert len(admissions) == 2
    assert derives(cpl, [f("bot")], f("imp(x2, x2)"), Fuel(6, 16, 50_000)) == Derived(3)


def test_a_goal_over_the_size_cap_is_answered_before_round_1(cpl, monkeypatch):
    k = f("imp(x1, imp(x2, x1))")
    fuel = Fuel(3, 4, 64)
    assert consequence.separating_matrix(cpl, (), k) is None
    rounds = _calls(monkeypatch, "_rule_conclusions")
    assert derives(cpl, (), k, fuel) == NotDerivedWithin(fuel)
    assert rounds == []
    # a premise is a member whatever its size; at a size cap the goal
    # fits, it is an A1 instance of round 1
    assert derives(cpl, [k], k, fuel) == Derived(0)
    assert derives(cpl, (), k, Fuel(3, 5, 64)) == Derived(1)
    assert len(rounds) == 1
