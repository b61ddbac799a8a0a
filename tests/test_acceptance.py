"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here. The fibring-conservation criterion certifies
the exhaustive corpus sweep through one-round side closures (which lower-bound
the alternating fixpoint) and additionally replays a seeded sample through
the full alternation.
"""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ontoweave import devgraph, presets
from ontoweave.consequence import (
    Fuel,
    check_operator_laws,
    check_principles,
    closure_bounded,
    derives,
    weaker_than,
)
from ontoweave.devgraph import (
    DevGraph,
    add_link,
    add_node,
    load_graph,
    save_graph,
    verify_decomposition,
    verify_heterogeneous_refinement,
    verify_integration,
)
from ontoweave.dsl import Link
from ontoweave.errors import (
    CycleError,
    DuplicateName,
    EvidenceRefuted,
    MissingSplittingLink,
    SignatureError,
)
from ontoweave.fibring import fibred_derives, h_closure, open_session
from ontoweave.morphisms import (
    SignatureMorphism,
    SplittingMorphism,
    Translation,
    substitute_back,
    translate,
)
from ontoweave.ontology import (
    Ontology,
    connect,
    connection_axiom_rounds,
    validate_ontology,
)
from ontoweave.syntax import (
    enumerate_formulas,
    formula_in_language,
    make_signature,
    parse_formula,
)

from conftest import binary_calculus, plain_ontology


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"{criterion} failed: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_operator_laws():
    cpl = presets.cpl()
    fuel = Fuel(2, 16, 200_000)
    started = time.monotonic()
    out = check_operator_laws(cpl, samples=200, fuel=fuel, seed=2024, corpus_depth=3)
    elapsed = time.monotonic() - started
    ok = out.ok and elapsed < 10.0
    report(
        "criterion-1 operator-laws",
        ok,
        f"samples=200 depth=3 elapsed={elapsed:.2f}s "
        + ("" if out.ok else out.render()),
    )


def test_criterion_2_translation_round_trip():
    small = make_signature([("not", 1), ("imp", 2)])
    big = make_signature([("not", 1), ("imp", 2), ("box", 1)])
    translation = Translation(small, big)
    corpus = enumerate_formulas(big, 4, 2)
    failures = 0
    exceptions = 0
    for phi in corpus:
        try:
            out = translate(translation, phi)
            if not formula_in_language(out, small):
                failures += 1
                continue
            if substitute_back(translation, out) is not phi:
                failures += 1
        except Exception:
            exceptions += 1
    ok = failures == 0 and exceptions == 0
    report(
        "criterion-2 translation-round-trip",
        ok,
        f"formulas={len(corpus)} failures={failures} exceptions={exceptions}",
    )


def _gamma_rows(corpus, max_premises=2):
    yield ()
    for x in corpus:
        yield (x,)
    if max_premises >= 2:
        for i, x in enumerate(corpus):
            for y in corpus[i + 1 :]:
                yield (x, y)


def test_criterion_3_fibring_conservation():
    cpl, conj = presets.cpl(), presets.conj()
    fuel = Fuel(2, 12, 8_000)
    session = open_session(cpl, conj, fuel)
    violations = 0
    checked = 0

    sides = (
        ("left", cpl, enumerate_formulas(cpl.sig, 3, 1)),
        ("right", conj, enumerate_formulas(conj.sig, 3, 2)),
    )
    for side, cal, corpus in sides:
        corpus_set = set(corpus)
        for gamma in _gamma_rows(corpus):
            derivable = sorted(
                (closure_bounded(cal, gamma, fuel) & corpus_set) - set(gamma),
                key=lambda f: f.sort_key,
            )
            if not derivable:
                continue
            stage_one = set(gamma) | h_closure(session, side, gamma)
            for phi in derivable:
                checked += 1
                if phi not in stage_one:
                    violations += 1

    # seeded sample through the full alternating fixpoint
    rng = random.Random(99)
    sampled = 0
    for side, cal, corpus in sides:
        for _ in range(20):
            gamma = rng.sample(corpus, 2)
            pool = sorted(
                (closure_bounded(cal, gamma, fuel) & set(corpus)) - set(gamma),
                key=lambda f: f.sort_key,
            )
            if not pool:
                continue
            phi = rng.choice(pool)
            fresh = open_session(cpl, conj, fuel)
            verdict = fibred_derives(fresh, gamma, phi)
            sampled += 1
            if not (verdict.is_derived and verdict.depth <= 2 * fuel.max_closure_rounds):
                violations += 1

    worked = open_session(cpl, conj, fuel)
    u = lambda t: parse_formula(t, worked.union_sig)
    verdict = fibred_derives(
        worked, [u("and(x1, x2)"), u("imp(x1, x3)")], u("x3")
    )
    worked_ok = verdict.is_derived and verdict.depth <= 2
    report(
        "criterion-3 fibring-conservation",
        violations == 0 and worked_ok,
        f"corpus-checked={checked} sampled={sampled} violations={violations} "
        f"worked-example-depth={getattr(verdict, 'depth', None)}",
    )


def test_criterion_4_connection_validity():
    rng = random.Random(41)
    fuel = Fuel(2, 14, 20_000)
    pool = [
        presets.cpl(),
        presets.conj(),
        presets.implication_fragment(),
        binary_calculus("join"),
        binary_calculus("pair"),
    ]
    failures = []
    for i in range(10):
        left_cal, right_cal = rng.choice(pool), rng.choice(pool)
        left_axioms = rng.sample(enumerate_formulas(left_cal.sig, 2, 2), rng.randint(0, 2))
        right_axioms = rng.sample(enumerate_formulas(right_cal.sig, 2, 2), rng.randint(0, 1))
        o1 = Ontology(f"L{i}", left_cal, left_cal.sig, left_axioms)
        o2 = Ontology(f"R{i}", right_cal, right_cal.sig, right_axioms)
        both = connect(o1, o2)
        if not validate_ontology(both, fuel).ok:
            failures.append(f"pair {i}: validation")
            continue
        for image, verdict in connection_axiom_rounds(o1, o2, fuel):
            if not (verdict.is_derived and verdict.depth <= 2):
                failures.append(f"pair {i}: axiom {image.text} {verdict}")
    report(
        "criterion-4 connection-validity",
        not failures,
        f"pairs=10 failures={failures}",
    )


def test_criterion_5_weakness_evidence():
    cpl = presets.cpl()
    fragment = presets.implication_fragment()
    rule_free = presets.rule_free()
    verified = weaker_than(fragment, cpl, corpus_depth=3, fuel=Fuel(2, 14, 20_000))
    refuted = weaker_than(cpl, rule_free, corpus_depth=2, fuel=Fuel(1, 12, 8_000))
    witness_ok = (
        refuted.status == "refuted"
        and refuted.detail == "weaker-than refuted gamma={x1, imp(x1, x2)} phi=x2 image=x2"
    )
    report(
        "criterion-5 weakness-evidence",
        verified.status == "verified" and witness_ok,
        f"fragment={verified.detail} refutation={refuted.detail}",
    )


def test_criterion_6_principle_probes():
    cpl = presets.cpl()
    strong = check_principles(cpl, corpus_depth=2, fuel=Fuel(3, 24, 50_000))
    from ontoweave.syntax import Symbol

    rule_free = presets.rule_free(negation=Symbol("not", 1))
    weak = check_principles(rule_free, corpus_depth=2, fuel=Fuel(1, 10, 4_000))
    pps_full = strong.entry("PPS")
    pnt_witness = weak.entry("PNT")
    pps_counter = weak.entry("PPS")
    ok = pps_full.ok and pnt_witness.ok and not pps_counter.ok
    report(
        "criterion-6 principle-probes",
        ok,
        f"pps={pps_full.witness} pnt={pnt_witness.witness} counter={pps_counter.witness}",
    )


# -- criterion 7 helpers


def _refinement_fixture(node_fuel, link_fuel):
    meet = binary_calculus("meet")
    conj = binary_calculus("and")
    weak = presets.rule_free(meet.sig)
    sym = lambda c: next(iter(c.sig.symbols()))
    g = DevGraph()
    g = add_node(g, plain_ontology(weak, "O1"), node_fuel)
    g = add_node(g, plain_ontology(conj, "O2"), node_fuel)
    g = add_node(g, plain_ontology(meet, "O2P"), node_fuel)
    g = add_link(g, Link("theorem", "O1", "O2P"), 2, link_fuel)
    h = SignatureMorphism(conj.sig, meet.sig, {sym(conj): sym(meet)})
    g = add_link(g, Link("definition", "O2", "O2P", h), 2, link_fuel)
    return g


def _integration_fixture(node_fuel, link_fuel):
    and_cal, or_cal = binary_calculus("and"), binary_calculus("or")
    ref = presets.rule_free(make_signature([("ref", 2)]))
    sym = lambda c: next(iter(c.sig.symbols()))
    g = DevGraph()
    g = add_node(g, plain_ontology(presets.rule_free(and_cal.sig), "O1"), node_fuel)
    g = add_node(g, plain_ontology(presets.rule_free(or_cal.sig), "O2"), node_fuel)
    g = add_node(g, plain_ontology(and_cal, "O1P"), node_fuel)
    g = add_node(g, plain_ontology(or_cal, "O2P"), node_fuel)
    g = add_node(g, plain_ontology(ref, "O"), node_fuel)
    g = add_link(g, Link("theorem", "O1", "O1P"), 2, link_fuel)
    g = add_link(g, Link("theorem", "O2", "O2P"), 2, link_fuel)
    for target, cal in (("O1P", and_cal), ("O2P", or_cal)):
        h = SignatureMorphism(ref.sig, cal.sig, {s: sym(cal) for s in ref.sig.symbols()})
        g = add_link(g, Link("definition", "O", target, h), 2, link_fuel)
    return g


def _decomposition_fixture(node_fuel, link_fuel):
    whole, p1, p2, cone = (
        binary_calculus("w"),
        binary_calculus("p1"),
        binary_calculus("p2"),
        binary_calculus("c"),
    )
    sym = lambda c: next(iter(c.sig.symbols()))

    def split(src, dst):
        body = parse_formula(f"{sym(dst).name}(x1, x2)", dst.sig)
        return SplittingMorphism(src.sig, dst.sig, {sym(src): body})

    g = DevGraph()
    for cal, name in ((whole, "W"), (p1, "P1"), (p2, "P2"), (cone, "C")):
        g = add_node(g, plain_ontology(cal, name), node_fuel)
    g = add_link(g, Link("splitting", "W", "P1", split(whole, p1)), 2, link_fuel)
    g = add_link(g, Link("splitting", "W", "P2", split(whole, p2)), 2, link_fuel)
    g = add_link(g, Link("splitting", "C", "P1", split(cone, p1)), 2, link_fuel)
    g = add_link(g, Link("splitting", "C", "P2", split(cone, p2)), 2, link_fuel)
    g = add_link(g, Link("splitting", "C", "W", split(cone, whole)), 2, link_fuel)
    return g


def _delete(g, victim):
    return DevGraph(g.nodes, {l: ev for l, ev in g.evidence.items() if l != victim})


def test_criterion_7_graph_integrity():
    node_fuel = Fuel(2, 14, 20_000)
    link_fuel = Fuel(1, 12, 8_000)
    rng = random.Random(7)
    calculi = {f"n{i}": binary_calculus(f"b{i % 4}") for i in range(10)}
    sym = lambda c: next(iter(c.sig.symbols()))
    g = DevGraph()
    problems = []
    ops = 0
    attempts = 0
    while ops < 1000:
        attempts += 1
        ops += 1
        roll = rng.random()
        try:
            if roll < 0.25:
                name = rng.choice(sorted(calculi))
                g = add_node(g, plain_ontology(calculi[name], name), node_fuel)
            else:
                present = sorted(g.nodes)
                if len(present) < 2:
                    ops -= 1
                    continue
                src, dst = rng.choice(present), rng.choice(present)
                kind = rng.choice(("theorem", "definition", "splitting"))
                asserted = rng.random() < 0.6
                if kind == "theorem":
                    link = Link("theorem", src, dst)
                elif kind == "definition":
                    h = SignatureMorphism(
                        g.nodes[src].base.sig,
                        g.nodes[dst].base.sig,
                        {sym(g.nodes[src].base): sym(g.nodes[dst].base)},
                    )
                    link = Link("definition", src, dst, h)
                else:
                    body = parse_formula(
                        f"{sym(g.nodes[dst].base).name}(x1, x2)", g.nodes[dst].base.sig
                    )
                    f = SplittingMorphism(
                        g.nodes[src].base.sig, g.nodes[dst].base.sig,
                        {sym(g.nodes[src].base): body},
                    )
                    link = Link("splitting", src, dst, f)
                g = add_link(g, link, 1, link_fuel, asserted=asserted)
        except (DuplicateName, CycleError, EvidenceRefuted, SignatureError):
            pass
        if not devgraph._acyclic(g.nodes, g.evidence):
            problems.append(f"cyclic after op {ops}")
            break
        # a str is parsed afresh, never answered from save_graph's last bytes
        if load_graph(save_graph(g).decode("utf-8")) != g:
            problems.append(f"round-trip mismatch after op {ops}")
            break

    detail = []
    ref = _refinement_fixture(node_fuel, link_fuel)
    if not verify_heterogeneous_refinement(ref, "O1", "O2", "O2P"):
        detail.append("refinement fixture")
    for victim in ref.links:
        if verify_heterogeneous_refinement(_delete(ref, victim), "O1", "O2", "O2P"):
            detail.append(f"refinement survives deleting {victim.kind}")

    integ = _integration_fixture(node_fuel, link_fuel)
    if not verify_integration(integ, "O", "O1", "O2", conservative=True):
        detail.append("integration fixture")
    for victim in integ.links:
        if verify_integration(_delete(integ, victim), "O", "O1", "O2", False):
            detail.append(f"integration survives deleting {victim.kind}")

    deco = _decomposition_fixture(node_fuel, link_fuel)
    if not verify_decomposition(deco, "W", ["P1", "P2"], link_fuel).ok:
        detail.append("decomposition fixture")
    for victim in deco.links:
        if victim.src == "C" and victim.dst != "W":
            continue  # cone legs only unregister the cone; the pattern stays
        pruned = _delete(deco, victim)
        try:
            still = verify_decomposition(pruned, "W", ["P1", "P2"], link_fuel).ok
        except MissingSplittingLink:
            still = False
        if still:
            detail.append(f"decomposition survives deleting {victim.src}->{victim.dst}")

    ok = not problems and not detail
    report(
        "criterion-7 graph-integrity",
        ok,
        f"ops={ops} problems={problems or detail}",
    )


DETERMINISM_DEFS = """
signature CPL { bot/0; not/1; imp/2; }
calculus cpl over CPL {
  axiom A1: imp(x1, imp(x2, x1));
  axiom A2: imp(imp(x1, imp(x2, x3)), imp(imp(x1, x2), imp(x1, x3)));
  axiom A3: imp(imp(not(x1), not(x2)), imp(x2, x1));
  axiom DS: imp(not(x1), imp(x1, x2));
  rule MP: x1, imp(x1, x2) |- x2;
  negation not;
}
signature CONJ { and/2; }
calculus conj over CONJ {
  rule AndE1: and(x1, x2) |- x1;
  rule AndE2: and(x1, x2) |- x2;
  rule AndI: x1, x2 |- and(x1, x2);
}
ontology efq {
  base cpl;
  onto_signature { bot/0; }
  axioms { imp(bot, x1); }
}
ontology conj_onto {
  base conj;
  onto_signature { and/2; }
  axioms { }
}
"""


CONJ_ONLY_DEFS = """
signature CONJ { and/2; }
calculus conj over CONJ {
  rule AndE1: and(x1, x2) |- x1;
  rule AndE2: and(x1, x2) |- x2;
  rule AndI: x1, x2 |- and(x1, x2);
}
"""


def _cli_script(run_dir: Path, hash_seed: str) -> bytes:
    (run_dir / "defs.dsl").write_text(DETERMINISM_DEFS, encoding="utf-8")
    (run_dir / "gamma.txt").write_text("x1\nimp(x1, x2)\n", encoding="utf-8")
    (run_dir / "fg.txt").write_text("and(x1, x2)\nimp(x1, x3)\n", encoding="utf-8")
    (run_dir / "conj.dsl").write_text(CONJ_ONLY_DEFS, encoding="utf-8")
    fast = ["--fuel-rounds", "2", "--fuel-size", "14", "--fuel-set", "20000"]
    commands = [
        ["check", "defs.dsl", "--samples", "8", "--seed", "11", *fast],
        # law-check witnesses at the default fuel must not follow hash order
        ["check", "conj.dsl", "--samples", "30", "--seed", "1"],
        ["derive", "--defs", "defs.dsl", "--calculus", "cpl",
         "--gamma", "gamma.txt", "--phi", "x2", *fast],
        ["fibre", "--defs", "defs.dsl", "--left", "cpl", "--right", "conj",
         "--gamma", "fg.txt", "--phi", "x3", "--rounds", "2",
         "--fuel-size", "12", "--fuel-set", "4000"],
        ["connect", "--defs", "defs.dsl", "--left", "efq", "--right", "conj_onto",
         "--as", "merged", *fast],
        ["graph", "--manifest", "m.dsl", *fast,
         "add-node", "--defs", "defs.dsl", "--name", "efq"],
        ["graph", "--manifest", "m.dsl", *fast,
         "add-link", "--kind", "theorem", "--from", "efq", "--to", "efq"],
        ["graph", "--manifest", "m.dsl", *fast, "verify-refinement",
         "--from", "efq", "--to", "efq"],
        ["graph", "--manifest", "m.dsl", *fast, "save"],
    ]
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    # the commands run in run_dir, so a relative PYTHONPATH would not find
    # the package under test
    src = str(Path(presets.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    blob = b""
    for command in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "ontoweave.cli", *command],
            cwd=run_dir,
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert b"Traceback" not in proc.stderr, proc.stderr.decode()
        blob += b"$ " + " ".join(command).encode() + b"\n"
        blob += proc.stdout + f"exit={proc.returncode}\n".encode()
    return blob


def test_criterion_8_determinism(tmp_path):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    run_a.mkdir()
    run_b.mkdir()
    blob_a = _cli_script(run_a, "1")
    blob_b = _cli_script(run_b, "2")
    report(
        "criterion-8 determinism",
        blob_a == blob_b,
        f"bytes={len(blob_a)} vs {len(blob_b)}",
    )
