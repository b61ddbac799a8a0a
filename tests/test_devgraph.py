"""Development graphs: links with evidence, pattern verifiers, persistence."""

import pytest

from ontoweave.consequence import ASSERTED, CalculusPresentation, Evidence, Fuel, weaker_than
from ontoweave.devgraph import (
    DevGraph,
    Link,
    add_link,
    add_node,
    check_splitting_morphism,
    load_graph,
    save_graph,
    verify_decomposition,
    verify_heterogeneous_refinement,
    verify_homogeneous_refinement,
    verify_integration,
)
from ontoweave.errors import (
    CycleError,
    DuplicateName,
    EvidenceRefuted,
    FormatError,
    MissingSplittingLink,
    UnknownNode,
    ValidationFailed,
)
from ontoweave.morphisms import SignatureMorphism, SplittingMorphism
from ontoweave.ontology import Ontology, check_ecsy_morphism, make_ontology
from ontoweave.syntax import Symbol, make_signature, parse_formula
from ontoweave import presets

from conftest import binary_calculus, plain_ontology

NODE_FUEL = Fuel(2, 14, 20_000)
LINK_FUEL = Fuel(1, 12, 8_000)


def sym(cal):
    return next(iter(cal.sig.symbols()))


def relabel(src_cal, dst_cal):
    return SignatureMorphism(src_cal.sig, dst_cal.sig, {sym(src_cal): sym(dst_cal)})


def splitting_to(src_cal, dst_cal, swap=False):
    body = "(x2, x1)" if swap else "(x1, x2)"
    target = parse_formula(f"{sym(dst_cal).name}{body}", dst_cal.sig)
    return SplittingMorphism(src_cal.sig, dst_cal.sig, {sym(src_cal): target})


# -- node insertion


def test_add_node_and_duplicate(cpl):
    g = add_node(DevGraph(), plain_ontology(cpl, "A"), NODE_FUEL)
    assert set(g.nodes) == {"A"}
    with pytest.raises(DuplicateName):
        add_node(g, plain_ontology(cpl, "A"), NODE_FUEL)


def test_add_node_validation_failure(cpl):
    bad = Ontology("bad", cpl, make_signature([]), [parse_formula("x1", cpl.sig)])
    bad._effective = cpl  # force condition 3 to fail
    with pytest.raises(ValidationFailed):
        add_node(DevGraph(), bad, NODE_FUEL)


# -- link insertion


def two_node_graph():
    a = binary_calculus("and")
    m = binary_calculus("meet")
    g = DevGraph()
    g = add_node(g, plain_ontology(a, "A"), NODE_FUEL)
    g = add_node(g, plain_ontology(m, "M"), NODE_FUEL)
    return g, a, m


def test_theorem_self_link_accepted(cpl):
    g = add_node(DevGraph(), plain_ontology(cpl, "K"), NODE_FUEL)
    g = add_link(g, Link("theorem", "K", "K"), 1, LINK_FUEL)
    ev = g.evidence[g.links[0]]
    assert ev.status == "verified"
    assert g.is_acyclic()


def test_definition_link_verified():
    g, a, m = two_node_graph()
    g = add_link(g, Link("definition", "A", "M", relabel(a, m)), 2, LINK_FUEL)
    assert g.evidence[g.links[0]].status == "verified"


def test_splitting_link_verified():
    g, a, m = two_node_graph()
    g = add_link(g, Link("splitting", "A", "M", splitting_to(a, m)), 2, LINK_FUEL)
    assert g.evidence[g.links[0]].status == "verified"


def test_identity_splitting_link_between_twin_nodes():
    # two distinct nodes over the same signature; the identity splitting
    # preserves entailment verbatim
    cal = binary_calculus("and")
    g = DevGraph()
    g = add_node(g, plain_ontology(cal, "A"), NODE_FUEL)
    g = add_node(g, plain_ontology(cal, "B"), NODE_FUEL)
    ident = SplittingMorphism.identity(cal.sig)
    g = add_link(g, Link("splitting", "A", "B", ident), 2, LINK_FUEL)
    assert g.evidence[g.links[0]].status == "verified"


def test_link_unknown_endpoint():
    g, a, m = two_node_graph()
    with pytest.raises(UnknownNode):
        add_link(g, Link("theorem", "A", "Z"), 1, LINK_FUEL)


def test_cycle_rejected():
    g, a, m = two_node_graph()
    g = add_link(g, Link("definition", "A", "M", relabel(a, m)), 1, LINK_FUEL)
    with pytest.raises(CycleError):
        add_link(g, Link("definition", "M", "A", relabel(m, a)), 1, LINK_FUEL)


def test_refuted_theorem_rejected(cpl, rule_free):
    g = DevGraph()
    g = add_node(g, plain_ontology(cpl, "K"), NODE_FUEL)
    g = add_node(g, plain_ontology(rule_free, "RF"), NODE_FUEL)
    with pytest.raises(EvidenceRefuted):
        add_link(g, Link("theorem", "K", "RF"), 2, LINK_FUEL)
    # the graph is unchanged
    assert g.links == ()


def test_asserted_link_stored_distinctly(cpl, rule_free):
    g = DevGraph()
    g = add_node(g, plain_ontology(cpl, "K"), NODE_FUEL)
    g = add_node(g, plain_ontology(rule_free, "RF"), NODE_FUEL)
    g = add_link(g, Link("theorem", "K", "RF"), 2, LINK_FUEL, asserted=True)
    assert g.evidence[g.links[0]] == Evidence("asserted", None, None,
                                              "asserted without machine check")


def test_duplicate_link_rejected():
    g, a, m = two_node_graph()
    link = Link("definition", "A", "M", relabel(a, m))
    g = add_link(g, link, 1, LINK_FUEL)
    with pytest.raises(DuplicateName):
        add_link(g, link, 1, LINK_FUEL)


def test_splitting_morphism_refutation(cpl, rule_free):
    # identity splitting into a calculus that cannot replay modus ponens
    ident = SplittingMorphism.identity(cpl.sig)
    strong = plain_ontology(cpl, "strong")
    weak = plain_ontology(rule_free, "weak")
    ev = check_splitting_morphism(ident, strong, weak, 2, LINK_FUEL)
    assert ev.status == "refuted"
    assert ev.detail.startswith("splitting-morphism refuted ")
    assert "x2" in ev.detail


def test_link_checkers_share_one_transfer_scan(cpl, rule_free):
    o = plain_ontology(cpl, "o")
    theorem = weaker_than(o.effective, o.effective, 2, LINK_FUEL)
    definition = check_ecsy_morphism(SignatureMorphism.identity(cpl.sig), o, o, 2, LINK_FUEL)
    splitting = check_splitting_morphism(SplittingMorphism.identity(cpl.sig), o, o, 2, LINK_FUEL)
    assert theorem.status == definition.status == splitting.status == "verified"
    checked = {ev.detail.rsplit(" checked=", 1)[1] for ev in (theorem, definition, splitting)}
    assert len(checked) == 1 and int(checked.pop()) > 0

    strong = plain_ontology(cpl, "strong")
    weak = plain_ontology(rule_free, "weak")
    refuted_definition = check_ecsy_morphism(
        SignatureMorphism.identity(cpl.sig), strong, weak, 2, LINK_FUEL
    )
    refuted_splitting = check_splitting_morphism(
        SplittingMorphism.identity(cpl.sig), strong, weak, 2, LINK_FUEL
    )
    witness = "gamma={x1, imp(x1, x2)} phi=x2 image=x2"
    assert refuted_definition.status == refuted_splitting.status == "refuted"
    assert refuted_definition.detail == f"ecsy-morphism refuted {witness}"
    assert refuted_splitting.detail == f"splitting-morphism refuted {witness}"


def test_theory_mismatch_refutes_definition_link(cpl):
    # consequences transfer into the stronger node, but its theory differs
    bare = plain_ontology(cpl, "bare")
    axiom = parse_formula("imp(bot, x1)", cpl.sig)
    efq = make_ontology(cpl, make_signature([("bot", 0)]), [axiom], "efq")
    identity = SignatureMorphism.identity(cpl.sig)
    ev = check_ecsy_morphism(identity, bare, efq, 2, LINK_FUEL)
    detail = "ecsy-morphism refuted theory mismatch at imp(bot, x1)"
    assert ev == Evidence("refuted", 2, LINK_FUEL, detail)
    g = add_node(add_node(DevGraph(), bare, NODE_FUEL), efq, NODE_FUEL)
    with pytest.raises(EvidenceRefuted) as refusal:
        add_link(g, Link("definition", "bare", "efq", identity), 2, LINK_FUEL)
    assert str(refusal.value) == f"definition link: {ev.detail}"


# -- refinement patterns


def refinement_fixture():
    """Theorem link O1 -> O2P plus monomorphic definition link O2 -> O2P."""
    meet = binary_calculus("meet")
    conj = binary_calculus("and")
    weak = presets.rule_free(meet.sig)
    g = DevGraph()
    g = add_node(g, plain_ontology(weak, "O1"), NODE_FUEL)
    g = add_node(g, plain_ontology(conj, "O2"), NODE_FUEL)
    g = add_node(g, plain_ontology(meet, "O2P"), NODE_FUEL)
    g = add_link(g, Link("theorem", "O1", "O2P"), 2, LINK_FUEL)
    g = add_link(g, Link("definition", "O2", "O2P", relabel(conj, meet)), 2, LINK_FUEL)
    return g


def test_homogeneous_refinement_direction():
    g = refinement_fixture()
    assert verify_homogeneous_refinement(g, "O1", "O2P")
    assert not verify_homogeneous_refinement(g, "O2P", "O1")
    assert not verify_homogeneous_refinement(g, "O1", "O2")
    with pytest.raises(UnknownNode):
        verify_homogeneous_refinement(g, "O1", "nope")


def test_heterogeneous_refinement_figure_shape():
    g = refinement_fixture()
    assert verify_heterogeneous_refinement(g, "O1", "O2", "O2P")


def test_heterogeneous_refinement_edge_deletions_flip():
    g = refinement_fixture()
    for drop_kind in ("theorem", "definition"):
        kept = [l for l in g.links if l.kind != drop_kind]
        pruned = DevGraph(g.nodes, kept, {l: g.evidence[l] for l in kept})
        assert not verify_heterogeneous_refinement(pruned, "O1", "O2", "O2P")


def test_heterogeneous_refinement_needs_mono():
    # collapse two symbols onto one target symbol: not monomorphic
    two = CalculusPresentation(make_signature([("a", 2), ("b", 2)]))
    meet = binary_calculus("meet")
    h = SignatureMorphism(
        two.sig, meet.sig,
        {Symbol("a", 2): Symbol("meet", 2), Symbol("b", 2): Symbol("meet", 2)},
    )
    weak = presets.rule_free(meet.sig)
    g = DevGraph()
    g = add_node(g, plain_ontology(weak, "O1"), NODE_FUEL)
    g = add_node(g, plain_ontology(two, "O2"), NODE_FUEL)
    g = add_node(g, plain_ontology(meet, "O2P"), NODE_FUEL)
    g = add_link(g, Link("theorem", "O1", "O2P"), 2, LINK_FUEL)
    g = add_link(g, Link("definition", "O2", "O2P", h), 2, LINK_FUEL)
    assert not verify_heterogeneous_refinement(g, "O1", "O2", "O2P")


# -- integration pattern


def integration_fixture():
    and_cal = binary_calculus("and")
    or_cal = binary_calculus("or")
    ref = presets.rule_free(make_signature([("ref", 2)]))
    g = DevGraph()
    g = add_node(g, plain_ontology(presets.rule_free(and_cal.sig), "O1"), NODE_FUEL)
    g = add_node(g, plain_ontology(presets.rule_free(or_cal.sig), "O2"), NODE_FUEL)
    g = add_node(g, plain_ontology(and_cal, "O1P"), NODE_FUEL)
    g = add_node(g, plain_ontology(or_cal, "O2P"), NODE_FUEL)
    g = add_node(g, plain_ontology(ref, "O"), NODE_FUEL)
    g = add_link(g, Link("theorem", "O1", "O1P"), 2, LINK_FUEL)
    g = add_link(g, Link("theorem", "O2", "O2P"), 2, LINK_FUEL)
    g = add_link(g, Link("definition", "O", "O1P", relabel(ref, and_cal)), 2, LINK_FUEL)
    g = add_link(g, Link("definition", "O", "O2P", relabel(ref, or_cal)), 2, LINK_FUEL)
    return g


def test_integration_figure_shape():
    g = integration_fixture()
    assert verify_integration(g, "O", "O1", "O2", conservative=False)
    assert verify_integration(g, "O", "O1", "O2", conservative=True)


def test_integration_edge_deletions_flip():
    g = integration_fixture()
    for victim in g.links:
        kept = [l for l in g.links if l != victim]
        pruned = DevGraph(g.nodes, kept, {l: g.evidence[l] for l in kept})
        assert not verify_integration(pruned, "O", "O1", "O2", False), victim


def test_conservative_integration_needs_mono():
    and_cal = binary_calculus("and")
    or_cal = binary_calculus("or")
    two = presets.rule_free(make_signature([("r1", 2), ("r2", 2)]))
    collapse_and = SignatureMorphism(
        two.sig, and_cal.sig,
        {Symbol("r1", 2): Symbol("and", 2), Symbol("r2", 2): Symbol("and", 2)},
    )
    g = DevGraph()
    g = add_node(g, plain_ontology(presets.rule_free(and_cal.sig), "O1"), NODE_FUEL)
    g = add_node(g, plain_ontology(presets.rule_free(or_cal.sig), "O2"), NODE_FUEL)
    g = add_node(g, plain_ontology(and_cal, "O1P"), NODE_FUEL)
    g = add_node(g, plain_ontology(or_cal, "O2P"), NODE_FUEL)
    g = add_node(g, plain_ontology(two, "O"), NODE_FUEL)
    g = add_link(g, Link("theorem", "O1", "O1P"), 2, LINK_FUEL)
    g = add_link(g, Link("theorem", "O2", "O2P"), 2, LINK_FUEL)
    g = add_link(g, Link("definition", "O", "O1P", collapse_and), 2, LINK_FUEL)
    g = add_link(
        g,
        Link(
            "definition",
            "O",
            "O2P",
            SignatureMorphism(
                two.sig, or_cal.sig,
                {Symbol("r1", 2): Symbol("or", 2), Symbol("r2", 2): Symbol("or", 2)},
            ),
        ),
        2,
        LINK_FUEL,
    )
    assert verify_integration(g, "O", "O1", "O2", conservative=False)
    assert not verify_integration(g, "O", "O1", "O2", conservative=True)


# -- decomposition pattern


def decomposition_fixture(swap_mediator=False):
    whole = binary_calculus("w")
    p1 = binary_calculus("p1")
    p2 = binary_calculus("p2")
    cone = binary_calculus("c")
    g = DevGraph()
    for cal, name in ((whole, "W"), (p1, "P1"), (p2, "P2"), (cone, "C")):
        g = add_node(g, plain_ontology(cal, name), NODE_FUEL)
    g = add_link(g, Link("splitting", "W", "P1", splitting_to(whole, p1)), 2, LINK_FUEL)
    g = add_link(g, Link("splitting", "W", "P2", splitting_to(whole, p2)), 2, LINK_FUEL)
    g = add_link(g, Link("splitting", "C", "P1", splitting_to(cone, p1)), 2, LINK_FUEL)
    g = add_link(g, Link("splitting", "C", "P2", splitting_to(cone, p2)), 2, LINK_FUEL)
    g = add_link(
        g, Link("splitting", "C", "W", splitting_to(cone, whole, swap=swap_mediator)),
        2, LINK_FUEL,
    )
    return g


def test_decomposition_verifies():
    g = decomposition_fixture()
    report = verify_decomposition(g, "W", ["P1", "P2"], 2, LINK_FUEL)
    assert report.ok, report.render()
    assert "cones-checked=1" in report.entry("cones-mediated").witness


def test_decomposition_disagreeing_mediator_reported():
    g = decomposition_fixture(swap_mediator=True)
    report = verify_decomposition(g, "W", ["P1", "P2"], 2, LINK_FUEL)
    assert not report.entry("cones-mediated").ok


def test_decomposition_missing_projection():
    g = decomposition_fixture()
    kept = [l for l in g.links if not (l.src == "W" and l.dst == "P1")]
    pruned = DevGraph(g.nodes, kept, {l: g.evidence[l] for l in kept})
    with pytest.raises(MissingSplittingLink):
        verify_decomposition(pruned, "W", ["P1", "P2"], 2, LINK_FUEL)


def test_decomposition_deleted_mediator_flips():
    g = decomposition_fixture()
    kept = [l for l in g.links if not (l.src == "C" and l.dst == "W")]
    pruned = DevGraph(g.nodes, kept, {l: g.evidence[l] for l in kept})
    report = verify_decomposition(pruned, "W", ["P1", "P2"], 2, LINK_FUEL)
    assert not report.ok


def test_decomposition_identity_single_part():
    whole = binary_calculus("w")
    part = binary_calculus("w2")
    g = DevGraph()
    g = add_node(g, plain_ontology(whole, "W"), NODE_FUEL)
    g = add_node(g, plain_ontology(part, "P"), NODE_FUEL)
    g = add_link(g, Link("splitting", "W", "P", splitting_to(whole, part)), 2, LINK_FUEL)
    report = verify_decomposition(g, "W", ["P"], 2, LINK_FUEL)
    assert report.ok


def test_decomposition_asserted_projection_not_enough():
    whole = binary_calculus("w")
    part = binary_calculus("p")
    g = DevGraph()
    g = add_node(g, plain_ontology(whole, "W"), NODE_FUEL)
    g = add_node(g, plain_ontology(part, "P"), NODE_FUEL)
    g = add_link(
        g, Link("splitting", "W", "P", splitting_to(whole, part)), 2, LINK_FUEL,
        asserted=True,
    )
    report = verify_decomposition(g, "W", ["P"], 2, LINK_FUEL)
    assert not report.entry("projection-evidence").ok


# -- weakness composes along refinement chains


def test_theorem_chain_composes(cpl):
    base_sig = cpl.sig
    weakest = presets.rule_free(base_sig)
    middle = CalculusPresentation(
        base_sig,
        axioms=tuple(r for r in cpl.axioms if r.name in ("A1", "A2")),
        rules=cpl.rules,
        negation=cpl.negation,
    )
    g = DevGraph()
    g = add_node(g, plain_ontology(weakest, "A"), NODE_FUEL)
    g = add_node(g, plain_ontology(middle, "B"), NODE_FUEL)
    g = add_node(g, plain_ontology(cpl, "C"), NODE_FUEL)
    g = add_link(g, Link("theorem", "A", "B"), 2, LINK_FUEL)
    g = add_link(g, Link("theorem", "B", "C"), 2, LINK_FUEL)
    assert verify_homogeneous_refinement(g, "A", "B")
    assert verify_homogeneous_refinement(g, "B", "C")
    composed = weaker_than(weakest, cpl, corpus_depth=2, fuel=LINK_FUEL)
    assert composed.status == "verified"


# -- persistence


def full_graph():
    g = refinement_fixture()
    meet = g.nodes["O2P"].base
    g = add_link(
        g,
        Link("splitting", "O2", "O2P", splitting_to(g.nodes["O2"].base, meet)),
        2,
        LINK_FUEL,
    )
    return g


def test_save_load_round_trip_all_kinds():
    g = full_graph()
    blob = save_graph(g)
    loaded = load_graph(blob)
    assert loaded == g
    assert save_graph(loaded) == blob


def test_save_load_empty():
    g = DevGraph()
    assert load_graph(save_graph(g)) == g


def test_load_truncated_manifest():
    blob = save_graph(full_graph())
    with pytest.raises(FormatError):
        load_graph(blob[: len(blob) // 2])


def test_load_rejects_unknown_nodes():
    with pytest.raises(FormatError):
        load_graph(b"link theorem A -> B assert\n")


def test_links_need_evidence(cpl):
    nodes = {"A": plain_ontology(cpl, "A"), "B": plain_ontology(cpl, "B")}
    link = Link("theorem", "A", "B")
    with pytest.raises(ValueError, match="lacks evidence"):
        DevGraph(nodes, [link])
    stray = Link("theorem", "B", "A")
    with pytest.raises(ValueError, match="not a link"):
        DevGraph(nodes, [link], {link: ASSERTED, stray: ASSERTED})


def test_asserted_and_verified_links_round_trip():
    cal = binary_calculus("m")
    g = DevGraph()
    for name in ("A", "B", "C"):
        g = add_node(g, plain_ontology(cal, name), NODE_FUEL)
    g = add_link(g, Link("theorem", "A", "B"), 2, LINK_FUEL)
    g = add_link(g, Link("theorem", "A", "C"), 2, LINK_FUEL, asserted=True)
    assert sorted(ev.status for ev in g.evidence.values()) == ["asserted", "verified"]
    blob = save_graph(g)
    loaded = load_graph(blob)
    assert loaded == g
    assert save_graph(loaded) == blob


def test_stored_evidence_is_reproducible():
    g = load_graph(save_graph(full_graph()))
    for link in g.links:
        ev = g.evidence[link]
        if ev.status != "verified":
            continue
        src, dst = g.nodes[link.src], g.nodes[link.dst]
        if link.kind == "theorem":
            again = weaker_than(src.effective, dst.effective, ev.corpus_depth, ev.fuel)
        elif link.kind == "splitting":
            again = check_splitting_morphism(
                link.morphism, src, dst, ev.corpus_depth, ev.fuel
            )
        else:
            again = check_ecsy_morphism(link.morphism, src, dst, ev.corpus_depth, ev.fuel)
        assert again == ev


def test_verifiers_do_not_mutate():
    g = full_graph()
    before = save_graph(g)
    verify_homogeneous_refinement(g, "O1", "O2P")
    verify_heterogeneous_refinement(g, "O1", "O2", "O2P")
    assert save_graph(g) == before
