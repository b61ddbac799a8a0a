"""Development graphs: links with evidence, pattern verifiers, persistence."""

import contextlib
import functools
import sys
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from ontoweave.consequence import (
    ASSERTED,
    CalculusPresentation,
    Evidence,
    Fuel,
    Rule,
    weaker_than,
)
from ontoweave.cli import main
from ontoweave.devgraph import (
    DevGraph,
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
from ontoweave.dsl import Link
from ontoweave.errors import (
    CycleError,
    DuplicateName,
    EvidenceRefuted,
    FormatError,
    MissingSplittingLink,
    OntoSigError,
    ParseError,
    SignatureError,
    UnknownNode,
    ValidationFailed,
)
from ontoweave.morphisms import SignatureMorphism, SplittingMorphism
from ontoweave.ontology import Ontology, check_ecsy_morphism
from ontoweave.syntax import (
    MAX_NESTING,
    Signature,
    Symbol,
    apply_symbol,
    enumerate_formulas,
    make_signature,
    parse_formula,
    svar,
)
from ontoweave import devgraph, dsl, presets

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
    # an axiom larger than the fuel's size cap is never derived within it
    big = parse_formula("imp(bot, " * 8 + "x1" + ")" * 8, cpl.sig)
    bad = Ontology("bad", cpl, make_signature([]), [big])
    with pytest.raises(ValidationFailed, match="^bad: axioms-derivable failed: "):
        add_node(DevGraph(), bad, NODE_FUEL)


def test_failing_node_fails_alike_twice(cpl):
    big = parse_formula("imp(bot, " * 8 + "x1" + ")" * 8, cpl.sig)
    bad = Ontology("bad", cpl, make_signature([]), [big])
    raised = []
    for _ in range(2):
        with pytest.raises(ValidationFailed) as info:
            add_node(DevGraph(), bad, NODE_FUEL)
        raised.append(str(info.value))
    assert raised[0] == raised[1] == f"bad: axioms-derivable failed: {big.text}"


# -- link insertion


def two_node_graph():
    a = binary_calculus("and")
    m = binary_calculus("meet")
    g = DevGraph()
    g = add_node(g, plain_ontology(a, "A"), NODE_FUEL)
    g = add_node(g, plain_ontology(m, "M"), NODE_FUEL)
    return g, a, m


def test_a_graph_reprs_its_node_names_and_link_count():
    g, a, m = two_node_graph()
    assert repr(g) == "DevGraph(nodes=['A', 'M'], links=0)"
    g = add_link(g, Link("definition", "A", "M", relabel(a, m)), 2, LINK_FUEL)
    assert repr(g) == "DevGraph(nodes=['A', 'M'], links=1)"


def test_theorem_self_link_accepted(cpl):
    g = add_node(DevGraph(), plain_ontology(cpl, "K"), NODE_FUEL)
    g = add_link(g, Link("theorem", "K", "K"), 1, LINK_FUEL)
    ev = g.evidence[g.links[0]]
    assert ev.status == "verified"
    assert devgraph._acyclic(g.nodes, g.evidence)


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


def test_cycle_rejected(monkeypatch):
    g, a, m = two_node_graph()
    g = add_link(g, Link("definition", "A", "M", relabel(a, m)), 1, LINK_FUEL)
    calls = []
    closes_cycle = devgraph._closes_cycle
    monkeypatch.setattr(devgraph, "_closes_cycle", lambda *args: calls.append(1) or closes_cycle(*args))
    with pytest.raises(CycleError, match="^link M -> A would close a cycle$"):
        add_link(g, Link("definition", "M", "A", relabel(m, a)), 1, LINK_FUEL)
    # the cycle check runs once per add_link, and add_node needs none
    add_link(g, Link("theorem", "M", "M"), 1, LINK_FUEL)
    add_node(g, plain_ontology(a, "B"), NODE_FUEL)
    assert len(calls) == 2


_CYCLE_NODES = dict.fromkeys("ABCDE")
_CYCLE_EDGES = st.tuples(st.sampled_from("ABCDE"), st.sampled_from("ABCDE"), st.booleans())


@given(st.lists(_CYCLE_EDGES, max_size=12), _CYCLE_EDGES)
def test_cycle_check_agrees_with_the_whole_graph_search(edges, new):
    # theorem links and splitting links, self-links among them, on acyclic
    # graphs grown one link at a time
    ident = SplittingMorphism.identity(make_signature([("a", 0)]))

    def link(src, dst, theorem):
        return Link("theorem", src, dst) if theorem else Link("splitting", src, dst, ident)

    links = []
    for edge in edges:
        if devgraph._acyclic(_CYCLE_NODES, links + [link(*edge)]):
            links.append(link(*edge))
    candidate = link(*new)
    whole = not devgraph._acyclic(_CYCLE_NODES, links + [candidate])
    assert devgraph._closes_cycle(links, candidate) == whole


def test_long_chain_round_trips_without_recursion(tmp_path, capsys):
    # more theorem links in a row than Python's recursion limit
    count = sys.getrecursionlimit() + 200
    cal = binary_calculus("and")
    names = [f"n{i}" for i in range(count)]
    links = [Link("theorem", src, dst) for src, dst in zip(names, names[1:])]
    g = DevGraph({name: plain_ontology(cal, name) for name in names}, dict.fromkeys(links, ASSERTED))
    blob = save_graph(g)
    assert reparse(blob) == g
    manifest = tmp_path / "chain.dsl"
    manifest.write_bytes(blob)
    save_graph(DevGraph())  # the save slot no longer holds the chain's bytes
    capsys.readouterr()
    assert main(["graph", "--manifest", str(manifest), "load"]) == 0
    assert capsys.readouterr().out == f"nodes={count} links={count - 1}\n"


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


def test_splitting_check_needs_matching_endpoints(cpl, conj):
    ident = SplittingMorphism.identity(cpl.sig)
    o, other = plain_ontology(cpl, "o"), plain_ontology(conj, "other")
    for a, b in ((o, other), (other, o)):
        with pytest.raises(SignatureError, match="^splitting endpoints do not match the ontologies$"):
            check_splitting_morphism(ident, a, b, 2, LINK_FUEL)


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


def test_link_checkers_scan_only_premise_sets_within_the_set_cap(conj):
    # at a set cap of 1 the pairs are skipped and every corpus formula is
    # checked alone; from a cap of 2 the pairs are scanned too
    o = plain_ontology(conj, "o")
    corpus = enumerate_formulas(conj.sig, 2, 2)
    for cap, checked in ((1, len(corpus)), (2, 42)):
        fuel = Fuel(1, 12, cap)
        evidence = (
            weaker_than(o.effective, o.effective, 2, fuel),
            check_ecsy_morphism(SignatureMorphism.identity(conj.sig), o, o, 2, fuel),
            check_splitting_morphism(SplittingMorphism.identity(conj.sig), o, o, 2, fuel),
        )
        assert [ev.detail for ev in evidence] == [
            f"weaker-than verified-up-to depth=2 rounds=1 checked={checked}",
            f"ecsy-morphism verified-up-to checked={checked}",
            f"splitting-morphism verified-up-to checked={checked}",
        ]
        assert all(ev.status == "verified" and ev.fuel == fuel for ev in evidence)


def test_theory_mismatch_refutes_definition_link(cpl):
    # consequences transfer into the stronger node, but its theory differs
    bare = plain_ontology(cpl, "bare")
    axiom = parse_formula("imp(bot, x1)", cpl.sig)
    efq = Ontology("efq", cpl, make_signature([("bot", 0)]), [axiom])
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
        pruned = DevGraph(g.nodes, {l: ev for l, ev in g.evidence.items() if l.kind != drop_kind})
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
        pruned = DevGraph(g.nodes, {l: ev for l, ev in g.evidence.items() if l != victim})
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
    report = verify_decomposition(g, "W", ["P1", "P2"], LINK_FUEL)
    assert report.ok, report.render()
    assert "cones-checked=1" in report.entry("cones-mediated").witness


def test_decomposition_disagreeing_mediator_reported():
    g = decomposition_fixture(swap_mediator=True)
    report = verify_decomposition(g, "W", ["P1", "P2"], LINK_FUEL)
    assert not report.entry("cones-mediated").ok


def test_decomposition_missing_projection():
    g = decomposition_fixture()
    pruned = DevGraph(
        g.nodes, {l: ev for l, ev in g.evidence.items() if (l.src, l.dst) != ("W", "P1")}
    )
    with pytest.raises(MissingSplittingLink):
        verify_decomposition(pruned, "W", ["P1", "P2"], LINK_FUEL)


def test_decomposition_needs_a_part():
    g = decomposition_fixture()
    with pytest.raises(MissingSplittingLink, match="^decomposition needs at least one part$"):
        verify_decomposition(g, "W", [], LINK_FUEL)


def test_decomposition_deleted_mediator_flips():
    g = decomposition_fixture()
    pruned = DevGraph(
        g.nodes, {l: ev for l, ev in g.evidence.items() if (l.src, l.dst) != ("C", "W")}
    )
    report = verify_decomposition(pruned, "W", ["P1", "P2"], LINK_FUEL)
    assert not report.ok


def test_decomposition_identity_single_part():
    whole = binary_calculus("w")
    part = binary_calculus("w2")
    g = DevGraph()
    g = add_node(g, plain_ontology(whole, "W"), NODE_FUEL)
    g = add_node(g, plain_ontology(part, "P"), NODE_FUEL)
    g = add_link(g, Link("splitting", "W", "P", splitting_to(whole, part)), 2, LINK_FUEL)
    report = verify_decomposition(g, "W", ["P"], LINK_FUEL)
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
    report = verify_decomposition(g, "W", ["P"], LINK_FUEL)
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


def reparse(blob):
    """The graph a fresh parse of a saved manifest builds: a str never
    takes the slot of save_graph's last bytes."""
    return load_graph(blob.decode("utf-8"))


def test_save_load_round_trip_all_kinds():
    g = full_graph()
    blob = save_graph(g)
    loaded = reparse(blob)
    assert loaded == g and loaded is not g
    assert save_graph(loaded) == blob


def test_save_load_empty():
    g = DevGraph()
    assert reparse(save_graph(g)) == g


def test_load_truncated_manifest():
    blob = save_graph(full_graph())
    with pytest.raises(FormatError):
        load_graph(blob[: len(blob) // 2])


def test_load_rejects_unknown_nodes():
    with pytest.raises(FormatError):
        load_graph(b"link theorem A -> B assert\n")


def test_asserted_and_verified_links_round_trip():
    cal = binary_calculus("m")
    g = DevGraph()
    for name in ("A", "B", "C"):
        g = add_node(g, plain_ontology(cal, name), NODE_FUEL)
    g = add_link(g, Link("theorem", "A", "B"), 2, LINK_FUEL)
    g = add_link(g, Link("theorem", "A", "C"), 2, LINK_FUEL, asserted=True)
    assert sorted(ev.status for ev in g.evidence.values()) == ["asserted", "verified"]
    blob = save_graph(g)
    loaded = reparse(blob)
    assert loaded == g
    assert save_graph(loaded) == blob


def test_stored_evidence_is_reproducible():
    g = reparse(save_graph(full_graph()))
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


# -- the constructor refuses what a manifest cannot carry back

EDGE_CAL = binary_calculus("m")
OTHER_CAL = binary_calculus("k")
def chain(sym, inner, times):
    """sym applied times over inner, sym's other arguments x1."""
    for _ in range(times):
        inner = apply_symbol(sym, (inner,) + (svar(1),) * (sym.arity - 1))
    return inner


M, U, C = Symbol("m", 2), Symbol("u", 1), Symbol("c", 0)
# nested one deeper than read_formula reads
DEEP = chain(M, svar(1), MAX_NESTING)
DEEP_CLOSED = chain(U, apply_symbol(C), MAX_NESTING)
UC_SIG = make_signature([("u", 1), ("c", 0)])


def sig_node(name, sym):
    """A node over a signature holding sym, which no signature block declares."""
    sig = Signature({sym.arity: [sym]})
    return Ontology(name, CalculusPresentation(sig), sig, ())


def edge_graph(evidence, nodes=("A", "B"), src="A", dst="B"):
    """DevGraph with one theorem link src -> dst carrying evidence."""
    link = Link("theorem", src, dst)
    return DevGraph({n: plain_ontology(EDGE_CAL, n) for n in nodes}, {link: evidence})


def link_graph(link):
    """DevGraph with nodes A and B and one asserted link."""
    return DevGraph({n: plain_ontology(EDGE_CAL, n) for n in "AB"}, {link: ASSERTED})


# Each shape is refused by the constructor of the part it constrains, with
# that constructor's exception, or else by DevGraph with a ValueError.
EVIDENCE_PARAMS = "^verified evidence needs a whole corpus depth >= 0 and a Fuel$"


@pytest.mark.parametrize(
    "build, error, match",
    [
        pytest.param(lambda: edge_graph(Evidence("verified", None, None, "")),
                     ValueError, EVIDENCE_PARAMS, id="no-fuel"),
        pytest.param(lambda: edge_graph(Evidence("verified", None, Fuel(), "")),
                     ValueError, EVIDENCE_PARAMS, id="no-depth"),
        pytest.param(lambda: edge_graph(Evidence("verified", 2.0, Fuel(), "")),
                     ValueError, EVIDENCE_PARAMS, id="float-depth"),
        pytest.param(lambda: edge_graph(Evidence("verified", 2, Fuel(2.5, 12, 8000), "")),
                     ValueError, "^all fuel fields must be whole numbers$", id="float-fuel"),
        pytest.param(lambda: edge_graph(Evidence("refuted", 2, Fuel(), "weaker-than refuted")),
                     ValueError, "'refuted' evidence is never stored", id="refuted"),
        pytest.param(lambda: edge_graph(Evidence("verified", 2, Fuel(), 'says "hi"')),
                     ValueError, "detail must be one line", id="quote-in-detail"),
        pytest.param(lambda: edge_graph(Evidence("verified", 2, Fuel(), "two\nlines")),
                     ValueError, "detail must be one line", id="newline-in-detail"),
        pytest.param(lambda: edge_graph(Evidence("asserted", 2, Fuel(), "mine")),
                     ValueError, "^asserted evidence carries no corpus depth or fuel$",
                     id="asserted-with-parameters"),
        pytest.param(lambda: edge_graph(Evidence("bogus")),
                     ValueError, "^unknown evidence status 'bogus'$", id="unknown-status"),
        pytest.param(lambda: edge_graph(Evidence("asserted", detail=3)),
                     ValueError, "^the evidence detail must be a str$", id="non-str-detail"),
        pytest.param(lambda: link_graph(Link("splitting", "A", "B")),
                     ValueError, "^splitting links carry a splitting morphism$",
                     id="splitting-without-map"),
        pytest.param(lambda: link_graph(Link("bogus", "A", "B")),
                     ValueError, "^unknown link kind 'bogus'$", id="unknown-link-kind"),
        pytest.param(lambda: edge_graph(ASSERTED, nodes=("A",)),
                     ValueError, "an endpoint is not a node", id="absent-node"),
        pytest.param(lambda: DevGraph({"x": plain_ontology(EDGE_CAL, "a")}),
                     ValueError, "must hold an ontology named 'x'", id="renamed-node"),
        pytest.param(lambda: DevGraph({"x y": Ontology("x y", EDGE_CAL, EDGE_CAL.sig, ())}),
                     ParseError, "^ontology name 'x y' is not a valid identifier$",
                     id="non-identifier-node"),
        pytest.param(
            lambda: add_node(DevGraph(), Ontology("x y", EDGE_CAL, EDGE_CAL.sig, ()), NODE_FUEL),
            ParseError, "^ontology name 'x y' is not a valid identifier$",
            id="non-identifier-added-node"),
        # an axiom and a rule that share a name; connect renames such pairs
        pytest.param(lambda: DevGraph({"M": plain_ontology(CalculusPresentation(
            EDGE_CAL.sig, [Rule("X", (), svar(1))], [Rule("X", (svar(1),), svar(1))]), "M")}),
            ValueError, "rule names must be distinct identifiers", id="clashing-rule-names"),
        pytest.param(lambda: DevGraph(
            {n: plain_ontology(EDGE_CAL, n) for n in "AB"},
            {Link("theorem", "A", "B"): ASSERTED, Link("theorem", "B", "A"): ASSERTED},
        ), ValueError, "^the links close a cycle$", id="two-cycle"),
        pytest.param(lambda: DevGraph({"A": Ontology("A", EDGE_CAL, EDGE_CAL.sig, [DEEP])}),
                     ValueError, "nested deeper than 256", id="deep-axiom"),
        pytest.param(lambda: DevGraph({"A": plain_ontology(CalculusPresentation(
            EDGE_CAL.sig, [Rule("A", (), DEEP)]), "A")}),
            ValueError, "nested deeper than 256", id="deep-schema"),
        pytest.param(lambda: DevGraph({"A": sig_node("A", Symbol("a b", 0))}),
                     ParseError, "^malformed identifier: 'a b'$", id="non-identifier-symbol"),
        pytest.param(lambda: DevGraph({"A": sig_node("A", Symbol("x1", 0))}),
                     ParseError, "^identifier 'x1' is reserved for schema variables$",
                     id="variable-named-symbol"),
        pytest.param(lambda: DevGraph({"A": sig_node("A", Symbol("f", -1))}),
                     ParseError, "^negative arity for 'f'$", id="negative-arity"),
        pytest.param(lambda: DevGraph({"A": Ontology("A", EDGE_CAL, UC_SIG, ())}),
                     OntoSigError, "is not included in the base signature",
                     id="onto-signature-outside-base"),
        pytest.param(lambda: DevGraph({"A": plain_ontology(CalculusPresentation(
            EDGE_CAL.sig, rules=[Rule("R", (), svar(1))]), "A")}),
            ValueError, "^rule 'R' has no premises$", id="rule-without-premises"),
        pytest.param(lambda: link_graph(Link("definition", "A", "B", SignatureMorphism.identity(
            Signature({0: [Symbol("a b", 0)]})))),
            ParseError, "^malformed identifier: 'a b'$", id="morphism-over-unwritable-signature"),
        # a/True equals a/1, but a manifest would write it as `a/1 -> a/True;`
        pytest.param(lambda: link_graph(Link("definition", "A", "B", SignatureMorphism(
            make_signature([("a", 1)]), make_signature([("a", 1)]), {Symbol("a", 1): Symbol("a", True)}))),
            SignatureError, "^image a/True of a/1 has an arity that is not a whole number$",
            id="bool-arity-image"),
        pytest.param(lambda: link_graph(Link("splitting", "A", "B", SplittingMorphism(
            make_signature([("c", 0)]), UC_SIG, {C: DEEP_CLOSED}))),
            ValueError, "nested deeper than 256", id="deep-splitting-image"),
    ],
)
def test_unstorable_graphs_are_refused(build, error, match):
    with pytest.raises(error, match=match) as caught:
        build()
    assert type(caught.value) is error


def test_stored_detail_is_kept_verbatim():
    g = edge_graph(Evidence("verified", 0, Fuel(), "tab\tand # hash, \\ backslash"))
    assert reparse(save_graph(g)) == g


def test_graphs_are_read_only():
    g = full_graph()
    link = g.links[0]
    with pytest.raises(TypeError):
        g.nodes["B"] = g.nodes["O1"]
    with pytest.raises(TypeError):
        del g.nodes["O1"]
    with pytest.raises(TypeError):
        g.evidence[link] = ASSERTED
    with pytest.raises(AttributeError):
        g.links = ()
    with pytest.raises(AttributeError):
        del g.evidence


def test_saved_nodes_cannot_change_in_place():
    blob = save_graph(full_graph())
    g = load_graph(blob)
    node = g.nodes["O2"]
    by_kind = {link.kind: link.morphism for link in g.links}
    definition, splitting = by_kind["definition"], by_kind["splitting"]
    sym = next(iter(definition.maps))
    for obj, attr in ((node, "axioms"), (node, "effective"), (node.base, "rules"),
                      (definition, "maps"), (splitting, "source")):
        with pytest.raises(AttributeError, match="is immutable: cannot set "):
            setattr(obj, attr, getattr(obj, attr))
        with pytest.raises(AttributeError, match="is immutable: cannot delete "):
            delattr(obj, attr)
    with pytest.raises(TypeError):
        definition.maps[sym] = sym
    with pytest.raises(TypeError):
        del splitting.assign[next(iter(splitting.assign))]
    assert load_graph(blob) == reparse(blob)


# -- load_graph answers its own last save without parsing


def _parse_spy(monkeypatch):
    """Count parses of the document parser load_graph calls."""
    calls = []
    parse = devgraph.read_document
    monkeypatch.setattr(devgraph, "read_document", lambda text: calls.append(1) or parse(text))
    return calls


@pytest.fixture()
def committed(tmp_path):
    """A manifest written by CLI commits: two nodes and a verified self-link."""
    defs = tmp_path / "defs.dsl"
    defs.write_text(
        "signature S { m/2; }\n"
        "calculus c over S { rule E1: m(x1, x2) |- x1; }\n"
        "ontology A { base c; onto_signature { } axioms { } }\n"
        "ontology B { base c; onto_signature { } axioms { } }\n",
        encoding="utf-8",
    )
    manifest = tmp_path / "graph.dsl"
    for argv in (["add-node", "--defs", str(defs), "--name", "A"],
                 ["add-node", "--defs", str(defs), "--name", "B"],
                 ["add-link", "--kind", "theorem", "--from", "A", "--to", "A"]):
        assert main(["graph", "--manifest", str(manifest), "--fuel-rounds", "1", *argv]) == 0
    return manifest


def test_load_after_commit_does_not_parse(committed, monkeypatch, capsys):
    def refuse(text):
        raise AssertionError("parsed")

    monkeypatch.setattr(dsl, "parse_document", refuse)
    monkeypatch.setattr(dsl, "read_document", refuse)
    monkeypatch.setattr(devgraph, "read_document", refuse)
    g = load_graph(committed.read_bytes())
    assert sorted(g.nodes) == ["A", "B"] and len(g.links) == 1
    capsys.readouterr()
    assert main(["graph", "--manifest", str(committed), "load"]) == 0
    assert capsys.readouterr().out == "nodes=2 links=1\n"


def test_hand_edited_manifest_is_parsed_again(committed, monkeypatch):
    blob = committed.read_bytes()
    calls = _parse_spy(monkeypatch)
    assert b" depth=2 " in blob
    edited = blob.replace(b" depth=2 ", b" depth=3 ")
    assert len(edited) == len(blob)
    (link,) = load_graph(edited).links
    assert calls == [1]
    assert load_graph(edited).evidence[link].corpus_depth == 3
    assert load_graph(blob).evidence[link].corpus_depth == 2
    assert calls == [1, 1]


def test_text_and_bad_manifests_load_as_before(committed, monkeypatch):
    blob = committed.read_bytes()
    saved = load_graph(blob)
    calls = _parse_spy(monkeypatch)
    assert load_graph(blob.decode("utf-8")) == saved
    assert calls == [1]
    with pytest.raises(FormatError, match="^corrupt manifest: "):
        load_graph(blob[: len(blob) // 2])
    with pytest.raises(FormatError, match=r"^corrupt manifest: not UTF-8 text \(byte 0: "):
        load_graph(b"\xff" + blob[1:])


# -- every graph the constructor builds round-trips through a fresh parse

_NODES = {
    name: plain_ontology(cal, name) for name, cal in zip("ABC", (EDGE_CAL, OTHER_CAL, EDGE_CAL))
}
_BAD_NODES = [
    ("D", plain_ontology(OTHER_CAL, "A")),
    ("D", Ontology("D", EDGE_CAL, EDGE_CAL.sig, [DEEP])),
]
_LINK_SHAPES = [
    ("theorem", None),
    ("definition", relabel(EDGE_CAL, OTHER_CAL)),
    ("definition", relabel(EDGE_CAL, EDGE_CAL)),
    ("splitting", splitting_to(OTHER_CAL, EDGE_CAL, swap=True)),
]
_FUELS = [Fuel(), Fuel(1, 12, 8_000)]
_SOUND_EVIDENCE = st.one_of(
    st.just(ASSERTED),
    st.builds(Evidence, st.just("verified"), st.sampled_from([0, 2]), st.sampled_from(_FUELS),
              st.text(st.characters(blacklist_characters='"\n'), max_size=6)),
)
_ANY_EVIDENCE = st.one_of(
    st.builds(Evidence, st.sampled_from(["verified", "refuted"]), st.sampled_from([0, 2]),
              st.sampled_from(_FUELS), st.text(max_size=6)),
    st.builds(Evidence, st.just("asserted"), st.none(), st.none(), st.text(max_size=6)),
)
_FAULTS = [None, "node", "end", "evidence", "reversed"]


@st.composite
def graph_parts(draw):
    """Nodes, acyclic links and their evidence, then at most one fault."""
    names = draw(st.sampled_from(["ABC", "AB", "BC", "A"]))
    nodes = {name: _NODES[name] for name in names}
    evidence = {}
    for _ in range(draw(st.integers(0, 4))):
        kind, morphism = draw(st.sampled_from(_LINK_SHAPES))
        src, dst = sorted(draw(st.sampled_from(names)) for _ in "12")
        link = Link(kind, src, dst, morphism) if src != dst else Link("theorem", src, dst)
        if link not in evidence:
            evidence[link] = draw(_SOUND_EVIDENCE)
    fault = draw(st.sampled_from(_FAULTS))
    if fault == "node":
        nodes.update([draw(st.sampled_from(_BAD_NODES))])
    elif fault == "end":
        evidence[Link("theorem", names[0], "Z")] = ASSERTED
    elif fault and evidence:
        link = draw(st.sampled_from(list(evidence)))
        if fault == "evidence":
            evidence[link] = draw(_ANY_EVIDENCE)
        elif link.src != link.dst:
            evidence[Link(link.kind, link.dst, link.src, link.morphism)] = ASSERTED
    return nodes, evidence, fault


@given(graph_parts())
def test_every_buildable_graph_round_trips(parts):
    nodes, evidence, fault = parts
    try:
        g = DevGraph(nodes, evidence)
    except ValueError:
        assert fault is not None
        return
    blob = save_graph(g)
    assert load_graph(blob) == g
    # the same manifest parsed afresh, past the slot
    fresh = reparse(blob)
    assert fresh == g and fresh is not g
    assert save_graph(fresh) == blob


# -- a manifest names its parts by content alone

_TEXT_CALS = [
    EDGE_CAL,
    OTHER_CAL,
    binary_calculus("a"),
    # over EDGE_CAL's signature, so it renumbers calculi and not signatures
    CalculusPresentation(EDGE_CAL.sig, rules=EDGE_CAL.rules[:2]),
]
_TEXT_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("node"), st.sampled_from("ABCDEF"), st.integers(0, len(_TEXT_CALS) - 1)),
        st.tuples(
            st.sampled_from(["theorem", "definition", "splitting"]),
            st.integers(0, 5),
            st.integers(0, 5),
            st.booleans(),
        ),
        # go back to an earlier graph of the run, so siblings are saved in turn
        st.tuples(st.just("revisit"), st.integers(0, 10)),
        # the same link with verified evidence in place of what it held
        st.tuples(st.just("verify"), st.integers(0, 10)),
    ),
    max_size=12,
)
VERIFIED = Evidence("verified", 1, LINK_FUEL, "checked")


@contextlib.contextmanager
def cold_saves():
    """An empty save slot and part-text memo; the warm ones are put back."""
    kept = devgraph._last_saved, devgraph._part_text
    devgraph._last_saved = None
    devgraph._part_text = functools.lru_cache(maxsize=devgraph.PART_TEXTS)(kept[1].__wrapped__)
    try:
        yield devgraph._part_text
    finally:
        devgraph._last_saved, devgraph._part_text = kept


def cold_save(g):
    """save_graph(g) from an empty slot and an empty part-text memo, so that
    it reuses nothing; its manifest, parsed afresh, saves to the same bytes."""
    with cold_saves():
        data = save_graph(g)
        assert save_graph(load_graph(data.decode("utf-8"))) == data
        return data


# K and M first, then a calculus over a/2, whose signature and calculus sort
# before theirs and renumber every s<i> and c<i>
@example([("node", "K", 1), ("node", "M", 0), ("definition", 1, 0, False), ("node", "A", 2)])
# a morphism from a/2 sorts before the one from m/2 and renumbers the h<i>
@example(
    [("node", "A", 2), ("node", "K", 1), ("node", "M", 0), ("definition", 2, 1, False),
     ("definition", 0, 1, False), ("splitting", 0, 1, True)]
)
# siblings g+a and g+b saved in turn: g+a, g, g+b, g+a, g+b, g+a
@example(
    [("node", "K", 1), ("node", "M", 0), ("theorem", 0, 0, False), ("revisit", 2),
     ("theorem", 1, 1, False), ("revisit", 3), ("revisit", 4), ("revisit", 3)]
)
# the same link saved with ASSERTED and then, back to back, verified
@example([("node", "K", 1), ("node", "M", 0), ("theorem", 1, 0, False), ("verify", 0)])
# links cite h0 and are saved; then a definition link whose map from a/2
# sorts first renumbers their map h1
@example(
    [("node", "A", 2), ("node", "K", 1), ("node", "M", 0), ("definition", 2, 1, False),
     ("theorem", 2, 2, False), ("definition", 0, 1, False), ("theorem", 0, 0, False)]
)
@given(_TEXT_STEPS)
def test_warm_saves_equal_cold_saves(steps):
    g, cals = DevGraph(), {}
    history = [g]
    for step in steps:
        names = sorted(g.nodes)
        try:
            if step[0] == "node":
                _, name, k = step
                g = add_node(g, plain_ontology(_TEXT_CALS[k], name), NODE_FUEL)
                cals[name] = _TEXT_CALS[k]
            elif step[0] == "revisit":
                g = history[step[1] % len(history)]
            elif step[0] == "verify":
                if g.links:
                    link = g.links[step[1] % len(g.links)]
                    g = DevGraph(g.nodes, {**g.evidence, link: VERIFIED})
            elif names:
                kind, i, j, swap = step
                src, dst = names[i % len(names)], names[j % len(names)]
                morphism = {
                    "theorem": None,
                    "definition": relabel(cals[src], cals[dst]),
                    "splitting": splitting_to(cals[src], cals[dst], swap),
                }[kind]
                g = add_link(g, Link(kind, src, dst, morphism), 1, LINK_FUEL, asserted=True)
        except (CycleError, DuplicateName):
            pass
        if g is not history[-1] and step[0] != "revisit":
            history.append(g)
        assert save_graph(g) == cold_save(g)


_EMITTERS = ("emit_signature", "emit_calculus", "emit_map", "emit_ontology", "emit_link")


def test_a_save_emits_only_what_the_command_added(monkeypatch):
    calls = Counter()

    def counting(name, emit):
        def counted(*args):
            calls[name] += 1
            return emit(*args)

        return counted

    for name in _EMITTERS:
        monkeypatch.setattr(devgraph, name, counting(name, getattr(devgraph, name)))
    a, k = EDGE_CAL, OTHER_CAL
    g = add_node(DevGraph(), plain_ontology(a, "A"), NODE_FUEL)
    g = add_node(g, plain_ontology(k, "K"), NODE_FUEL)
    g = add_link(g, Link("definition", "A", "K", relabel(a, k)), 1, LINK_FUEL, asserted=True)
    save_graph(g)
    assert set(calls) == set(_EMITTERS)
    calls.clear()
    g = add_link(g, Link("theorem", "K", "K"), 1, LINK_FUEL, asserted=True)
    save_graph(g)
    assert calls == {"emit_link": 1}
    calls.clear()
    # a node over a calculus the last save already named
    g = add_node(g, plain_ontology(a, "B"), NODE_FUEL)
    blob = save_graph(g)
    assert calls == {"emit_ontology": 1}
    assert blob == cold_save(g)


def test_a_thousand_distinct_saves_keep_the_part_texts_within_their_bound():
    # each graph has its own signature, calculus and node, so each save
    # emits five new texts: 5000 in all, against a bound of PART_TEXTS
    with cold_saves() as memo:
        for i in range(1000):
            sig = make_signature([(f"a{i}", 0)])
            g = add_node(DevGraph(), plain_ontology(presets.rule_free(sig), f"n{i}"), NODE_FUEL)
            save_graph(g)
            assert memo.cache_info().currsize <= devgraph.PART_TEXTS
        assert memo.cache_info().misses == 5000
    assert save_graph(g) == cold_save(g)
