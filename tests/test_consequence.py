"""The bounded derivability engine: closure, verdicts, operator laws,
structurality, weakness, and the meta-principle probes."""

import random

import pytest

from ontoweave.consequence import (
    CalculusPresentation,
    Derived,
    Fuel,
    NotDerivedWithin,
    Rule,
    check_operator_laws,
    check_principles,
    check_structural,
    closure_bounded,
    derives,
    weaker_than,
)
from ontoweave.errors import CapExceeded, ConfigError, LanguageError
from ontoweave.syntax import enumerate_formulas, make_signature, parse_formula, svar
from ontoweave import presets


def f(text, sig=None):
    return parse_formula(text, sig or presets.cpl_signature())


# -- presentation construction


def test_axiom_with_premises_rejected():
    sig = presets.cpl_signature()
    with pytest.raises(ValueError):
        CalculusPresentation(sig, axioms=(Rule("bad", (f("x1"),), f("x1")),))


def test_schema_outside_language_rejected():
    sig = make_signature([("imp", 2)])
    with pytest.raises(LanguageError):
        CalculusPresentation(sig, axioms=(Rule("A", (), f("not(x1)")),))


def test_negation_must_be_unary_in_signature():
    sig = make_signature([("imp", 2)])
    from ontoweave.syntax import Symbol

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


# -- derives


def test_derives_membership_depth_zero(cpl, quick_fuel):
    assert derives(cpl, [f("x1")], f("x1"), quick_fuel) == Derived(0)


def test_derives_two_mp_steps(cpl, quick_fuel):
    v = derives(cpl, [f("x1"), f("imp(x1, x2)"), f("imp(x2, x3)")], f("x3"), quick_fuel)
    assert v.is_derived and v.depth <= 2


def test_derives_bounded_negative(cpl, quick_fuel):
    v = derives(cpl, [], f("x1"), quick_fuel)
    assert v == NotDerivedWithin(quick_fuel)


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


def test_laws_broken_closure_reports_extensivity(cpl):
    def amnesiac(cal, gamma, fuel, extra_pool=()):
        return closure_bounded(cal, [], fuel, extra_pool=extra_pool)

    report = check_operator_laws(
        cpl, samples=30, fuel=Fuel(1, 10, 20000), seed=3, closure_fn=amnesiac
    )
    entry = report.entry("extensivity")
    assert not entry.ok
    assert entry.witness


def test_laws_quasi_closure_reports_idempotence_without_raising(cpl):
    # a quasi closure: re-closing keeps inflating, so idempotence fails but
    # the check reports a bound instead of raising
    def inflator(cal, gamma, fuel, extra_pool=()):
        base = closure_bounded(cal, gamma, fuel, extra_pool=extra_pool)
        deepest = max((g.size for g in gamma), default=0)
        bump = svar(1)
        for _ in range(deepest + 1):
            bump = parse_formula(f"not({bump.text})", presets.cpl_signature())
        return base | {bump}

    report = check_operator_laws(
        cpl, samples=40, fuel=Fuel(1, 10, 20000), seed=4, closure_fn=inflator
    )
    assert not report.entry("idempotence").ok


# -- structurality


def test_structural_identity_passes(cpl):
    report = check_structural(cpl, samples=10, fuel=Fuel(2, 12, 20000), seed=6)
    assert report.ok, report.render()


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
    report = check_principles(cpl, corpus_depth=2, fuel=Fuel(3, 24, 50000), max_var=1)
    assert report.entry("PNT").ok
    assert report.entry("PNC").ok
    assert report.entry("PPS").ok, report.entry("PPS").witness


def test_principles_rule_free_pnt_witness():
    rf = presets.rule_free(negation=None)
    report = check_principles(rf, corpus_depth=2, fuel=Fuel(1, 10, 4000), which=("PNT",))
    entry = report.entry("PNT")
    assert entry.ok
    assert "gamma={}" in entry.witness and "b=x1" in entry.witness


def test_principles_rule_free_pps_counter():
    from ontoweave.syntax import Symbol

    rf = presets.rule_free(negation=Symbol("not", 1))
    report = check_principles(rf, corpus_depth=2, fuel=Fuel(1, 10, 4000))
    pps = report.entry("PPS")
    assert not pps.ok
    assert "a=x1" in pps.witness and "b=x2" in pps.witness


def test_principles_missing_negation():
    rf = presets.rule_free(negation=None)
    with pytest.raises(ConfigError):
        check_principles(rf, corpus_depth=1, fuel=Fuel(1, 10, 4000))
