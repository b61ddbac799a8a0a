"""The bounded derivability engine: closure, verdicts, operator laws,
structurality, weakness, and the meta-principle probes."""

import random

import pytest
from hypothesis import given, settings, strategies as st

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
    transfer_scan,
    weaker_than,
)
from ontoweave.consequence import CLOSURE_MEMO_SLOTS, _ClosureMemo, _Engine, _StagingFull
from ontoweave.errors import CapExceeded, ConfigError, LanguageError
from ontoweave.syntax import (
    Symbol,
    apply_symbol,
    enumerate_formulas,
    make_signature,
    parse_formula,
    substitute,
    svar,
)
from ontoweave import consequence, presets


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
    with pytest.raises(LanguageError):
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


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: a conclusion-only variable is filled from the pool, "
    "but an old premise is never paired with a pool value that has just arrived",
)
def test_conclusion_only_variable_meets_new_pool_values():
    sig = make_signature([("a", 0), ("or", 2)])
    g = lambda text: parse_formula(text, sig)
    cal = CalculusPresentation(sig, rules=[Rule("OrI", (g("x1"),), g("or(x1, x2)"))])
    a, goal = g("a"), g("or(a, or(a, x1))")
    # closing the one-round closure for one more round reaches the goal
    one = closure_bounded(cal, [a], Fuel(1, 31, 100_000))
    assert goal in closure_bounded(cal, one, Fuel(1, 31, 100_000))
    assert goal in closure_bounded(cal, [a], Fuel(3, 31, 100_000))


# -- the closure memo


def _canonical(formulas):
    return tuple(sorted(set(formulas), key=lambda g: g.sort_key))


@pytest.fixture
def cold_memo(monkeypatch):
    """An empty closure memo with the real budget in place of the shared one."""
    memo = _ClosureMemo(CLOSURE_MEMO_SLOTS)
    monkeypatch.setattr(consequence, "_CLOSURES", memo)
    return memo


def _memo_slots(memo):
    return sum(len(p) + len(s) + len(m) for (_, p, _, s), m in memo.table.items())


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
            transfer_scan(imp_fragment, cpl, lambda phi: phi, 2, fuel),
            transfer_scan(cpl, rule_free, lambda phi: phi, 2, fuel),
        )

    cold = check()
    stored = len(cold_memo.table)
    assert stored and cold[1][1] is None and cold[2][1] is not None
    assert check() == cold
    assert len(cold_memo.table) == stored  # every closure was a hit
    monkeypatch.setattr(consequence, "_CLOSURES", _ClosureMemo(CLOSURE_MEMO_SLOTS))
    assert check() == cold


def test_memo_stays_within_its_slot_budget(cpl, monkeypatch):
    memo = _ClosureMemo(400)
    monkeypatch.setattr(consequence, "_CLOSURES", memo)
    rng = random.Random(5)
    corpus = enumerate_formulas(cpl.sig, 2, 2)
    fuel = Fuel(1, 10, 200)
    for _ in range(40):
        gamma = rng.sample(corpus, 2)
        assert closure_bounded(cpl, gamma, fuel) == _Engine(cpl, fuel, ()).run(_canonical(gamma))[0]
        assert memo.slots == _memo_slots(memo) <= 400
    assert 0 < len(memo.table) < 40
    # an entry bigger than the whole budget is returned but not stored
    big = Fuel()
    gamma = [f("x1"), f("imp(x1, x2)")]
    want, _ = _Engine(cpl, big, ()).run(_canonical(gamma))
    assert len(want) == 512
    held = dict(memo.table)
    assert closure_bounded(cpl, gamma, big) == want
    assert memo.table == held and memo.slots == _memo_slots(memo)


def test_memoised_closure_still_checks_its_premises(cpl, quick_fuel, cold_memo):
    # entries for the very keys a bad call would look up do not stop it raising
    box = parse_formula("box(x1)", make_signature([("box", 1)]))
    cold_memo.put((cpl, (box,), quick_fuel, ()), (box,))
    three = [f("x1"), f("x2"), f("bot")]
    tiny = Fuel(1, 9, 2)
    cold_memo.put((cpl, _canonical(three), tiny, ()), tuple(three))
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
    report = check_principles(cpl, corpus_depth=2, fuel=Fuel(3, 24, 50000))
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


# -- the rule join against the plain nested-loop join it replaced
#
# The reference below is the earlier join, kept verbatim apart from taking
# the engine as an argument: every candidate goes through the matcher and
# costs one unit of work on its own. The engine's join must stage the same
# set, stop (or not) at the same point and leave the same work budget, at
# every staging quota and work budget, cut or uncut.


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
        concl_vars = sorted(rule.conclusion.variables)

        def emit(bind):
            free = [v for v in concl_vars if v not in bind]
            if not free:
                concl = substitute(rule.conclusion, bind)
                if concl.size <= eng.size_cap:
                    eng._stage(staged, concl)
                return

            def fill(i):
                if i == len(free):
                    concl = substitute(rule.conclusion, bind)
                    if concl.size <= eng.size_cap:
                        eng._stage(staged, concl)
                    return
                for value in pool_sorted:
                    bind[free[i]] = value
                    fill(i + 1)
                    del bind[free[i]]

            fill(0)

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
                emit(bind)
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
    # constants, a repeated variable, a variable at depth 2 and a
    # three-premise rule, each beside a bare premise the look-ahead uses
    p = lambda text: parse_formula(text, _JOIN_SIG)
    cal = CalculusPresentation(
        _JOIN_SIG,
        rules=(
            Rule("MP", (p("x1"), p("f(x1, x2)")), p("x2")),
            Rule("Rep", (p("f(x1, x1)"), p("x1")), p("n(x1)")),
            Rule("Deep", (p("f(n(x1), x2)"), p("x2")), p("f(x2, x1)")),
            Rule("Three", (p("n(x3)"), p("f(x1, x2)"), p("x2")), p("f(x3, a)")),
            Rule("Const", (p("f(a, x1)"), p("x1")), p("n(b)")),
        ),
    )
    assert all(any(k is not None for k in levels) for levels in cal._lookahead)
    gamma = [p(t) for t in ("a", "b", "f(a, b)", "f(b, b)", "n(a)", "f(n(a), b)", "f(b, n(b))")]
    quota_cuts, work_cuts = _compare_joins(cal, gamma, Fuel(3, 9, 400), budgets_per_round=400)
    assert quota_cuts and work_cuts
    # a cap small enough that look-ahead arguments go over it
    _compare_joins(cal, gamma, Fuel(3, 4, 400), budgets_per_round=400)


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
        if not delta:
            break
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
