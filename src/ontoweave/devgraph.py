"""Development graphs: a DAG of ontologies with definition, theorem, and
splitting links, machine-checked link evidence, and pattern verifiers for
refinement, integration, and decomposition.

Graphs are persistent values: add_node and add_link return new graphs.
Theorem self-links are the one tolerated loop shape, because weakness is
reflexive and a self-link defines nothing; every other cycle is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .consequence import (
    ASSERTED,
    CalculusPresentation,
    Evidence,
    Fuel,
    Report,
    ReportEntry,
    check_structural,
    transfer_scan,
    weaker_than,
)
from .dsl import (
    LinkRecord,
    emit_calculus,
    emit_link,
    emit_map,
    emit_ontology,
    emit_signature,
    parse_document,
)
from .errors import (
    CycleError,
    DuplicateName,
    EvidenceRefuted,
    FormatError,
    MissingSplittingLink,
    ParseError,
    SignatureError,
    UnknownNode,
    ValidationFailed,
)
from .morphisms import (
    SignatureMorphism,
    SplittingMorphism,
    apply_splitting,
    compose_splitting,
    is_monomorphic,
)
from .ontology import Ontology, check_ecsy_morphism, validate_ontology
from .syntax import Signature, enumerate_formulas


@dataclass(frozen=True)
class Link:
    kind: str  # "definition" | "theorem" | "splitting"
    src: str
    dst: str
    morphism: SignatureMorphism | SplittingMorphism | None = None

    def __post_init__(self) -> None:
        if self.kind == "definition" and not isinstance(self.morphism, SignatureMorphism):
            raise ValueError("definition links carry a signature morphism")
        if self.kind == "splitting" and not isinstance(self.morphism, SplittingMorphism):
            raise ValueError("splitting links carry a splitting morphism")
        if self.kind == "theorem" and self.morphism is not None:
            raise ValueError("theorem links carry no morphism")
        if self.kind not in ("definition", "theorem", "splitting"):
            raise ValueError(f"unknown link kind {self.kind!r}")


class DevGraph:
    """Immutable snapshot of nodes, links, and link evidence."""

    __slots__ = ("nodes", "links", "evidence")

    def __init__(
        self,
        nodes: Mapping[str, Ontology] | None = None,
        links: Iterable[Link] = (),
        evidence: Mapping[Link, Evidence] | None = None,
    ):
        self.nodes: dict[str, Ontology] = dict(nodes or {})
        self.links: tuple[Link, ...] = tuple(links)
        self.evidence: dict[Link, Evidence] = dict(evidence or {})
        # save_graph writes every link with its evidence; load_graph needs both
        for link in self.links:
            if link not in self.evidence:
                raise ValueError(f"link {link.kind} {link.src} -> {link.dst} lacks evidence")
        links = set(self.links)
        for link in self.evidence:
            if link not in links:
                raise ValueError(f"evidence for {link.kind} {link.src} -> {link.dst}: not a link")

    def links_from(self, src: str, kind: str | None = None) -> list[Link]:
        return [l for l in self.links if l.src == src and (kind is None or l.kind == kind)]

    def links_between(self, src: str, dst: str, kind: str | None = None) -> list[Link]:
        return [l for l in self.links_from(src, kind) if l.dst == dst]

    def require_node(self, name: str) -> Ontology:
        node = self.nodes.get(name)
        if node is None:
            raise UnknownNode(f"no node named {name!r}")
        return node

    def is_acyclic(self) -> bool:
        return _acyclic(self.nodes, self.links)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DevGraph)
            and self.nodes == other.nodes
            and frozenset(self.links) == frozenset(other.links)
            and self.evidence == other.evidence
        )

    def __repr__(self) -> str:
        return f"DevGraph(nodes={sorted(self.nodes)}, links={len(self.links)})"


def _acyclic(nodes: Mapping[str, Ontology], links: Sequence[Link]) -> bool:
    adjacency: dict[str, list[str]] = {name: [] for name in nodes}
    for link in links:
        if link.src == link.dst and link.kind == "theorem":
            continue  # reflexive weakness defines nothing
        adjacency.setdefault(link.src, []).append(link.dst)
    state: dict[str, int] = {}

    def visit(node: str) -> bool:
        mark = state.get(node, 0)
        if mark == 1:
            return False
        if mark == 2:
            return True
        state[node] = 1
        for nxt in adjacency.get(node, ()):
            if not visit(nxt):
                return False
        state[node] = 2
        return True

    return all(visit(name) for name in adjacency)


# ---------------------------------------------------------------------------
# Mutations


def add_node(g: DevGraph, o: Ontology, fuel: Fuel | None = None) -> DevGraph:
    """Insert a validated ontology under its own name."""
    if o.name in g.nodes:
        raise DuplicateName(f"node {o.name!r} already exists")
    report = validate_ontology(o, fuel or Fuel())
    if not report.ok:
        bad = next(e for e in report.entries if not e.ok)
        raise ValidationFailed(f"{o.name}: {bad.label} failed: {bad.witness}")
    nodes = dict(g.nodes)
    nodes[o.name] = o
    return DevGraph(nodes, g.links, g.evidence)


def check_splitting_morphism(
    f: SplittingMorphism,
    a: Ontology,
    b: Ontology,
    corpus_depth: int,
    fuel: Fuel,
) -> Evidence:
    """Entailment preservation along the induced unfolding, checked by
    transfer_scan from a's effective calculus to b's: whatever the source
    derives, the image must derive."""
    if f.source != a.base.sig or f.target != b.base.sig:
        raise SignatureError("splitting endpoints do not match the ontologies")
    checked, found = transfer_scan(
        a.effective, b.effective, lambda phi: apply_splitting(f, phi), corpus_depth, fuel
    )
    if found:
        return Evidence("refuted", corpus_depth, fuel, f"splitting-morphism refuted {found.render()}")
    detail = f"splitting-morphism verified-up-to checked={checked}"
    return Evidence("verified", corpus_depth, fuel, detail)


def add_link(
    g: DevGraph,
    link: Link,
    corpus_depth: int,
    fuel: Fuel,
    *,
    asserted: bool = False,
) -> DevGraph:
    """Check and insert a link; refuted evidence rejects it.

    asserted skips the checker and stores ASSERTED, which carries no check
    parameters and which the verifiers tell apart from verified evidence.
    """
    src = g.require_node(link.src)
    dst = g.require_node(link.dst)
    if link in g.links:
        raise DuplicateName(f"link {link.kind} {link.src} -> {link.dst} already present")
    candidate = g.links + (link,)
    if not _acyclic(g.nodes, candidate):
        raise CycleError(f"link {link.src} -> {link.dst} would close a cycle")
    if asserted:
        evidence = ASSERTED
    elif link.kind == "definition":
        evidence = check_ecsy_morphism(link.morphism, src, dst, corpus_depth, fuel)
    elif link.kind == "theorem":
        evidence = weaker_than(src.effective, dst.effective, corpus_depth, fuel)
    else:
        evidence = check_splitting_morphism(link.morphism, src, dst, corpus_depth, fuel)
    if not evidence.ok:
        raise EvidenceRefuted(f"{link.kind} link: {evidence.detail}")
    ev = dict(g.evidence)
    ev[link] = evidence
    return DevGraph(g.nodes, candidate, ev)


# ---------------------------------------------------------------------------
# Pattern verifiers (pure over the graph)


def verify_homogeneous_refinement(g: DevGraph, o1: str, o2: str) -> bool:
    g.require_node(o1)
    g.require_node(o2)
    return bool(g.links_between(o1, o2, "theorem"))


def verify_heterogeneous_refinement(g: DevGraph, o1: str, o2: str, o2prime: str) -> bool:
    """The figure shape: a theorem link o1 -> o2prime and a monomorphic
    definition link o2 -> o2prime."""
    g.require_node(o1)
    g.require_node(o2)
    g.require_node(o2prime)
    if not g.links_between(o1, o2prime, "theorem"):
        return False
    return any(
        is_monomorphic(l.morphism) for l in g.links_between(o2, o2prime, "definition")
    )


def verify_integration(
    g: DevGraph, o: str, o1: str, o2: str, conservative: bool = False
) -> bool:
    """Reference-ontology integration: theorem links o1 -> o1', o2 -> o2'
    and definition links o -> o1', o -> o2'; conservatively when both
    definition morphisms are monomorphic."""
    g.require_node(o)
    g.require_node(o1)
    g.require_node(o2)

    def admissible(link: Link) -> bool:
        return not conservative or is_monomorphic(link.morphism)

    for d1 in g.links_from(o, "definition"):
        if not admissible(d1) or not g.links_between(o1, d1.dst, "theorem"):
            continue
        for d2 in g.links_from(o, "definition"):
            if d2.dst == d1.dst:
                continue
            if admissible(d2) and g.links_between(o2, d2.dst, "theorem"):
                return True
    return False


def verify_decomposition(
    g: DevGraph,
    o: str,
    parts: Sequence[str],
    corpus_depth: int,
    fuel: Fuel,
    *,
    max_var: int = 2,
) -> Report:
    """Check a product-shaped decomposition of o into parts.

    (i) every projection splitting link must carry verified evidence;
    (ii) every registered competing cone (a node with splitting links to all
    parts) must have a mediating splitting link to o whose composites with
    the projections agree with the cone's own legs on the whole corpus;
    (iii) the decomposed node passes the structurality probe.
    Only cones present in the graph are checked.
    """
    node = g.require_node(o)
    for part in parts:
        g.require_node(part)
    if not parts:
        raise MissingSplittingLink("decomposition needs at least one part")
    projections: dict[str, list[Link]] = {}
    for part in parts:
        found = g.links_between(o, part, "splitting")
        if not found:
            raise MissingSplittingLink(f"no splitting link {o} -> {part}")
        projections[part] = found
    entries: list[ReportEntry] = []

    bad_evidence = ""
    for part in parts:
        for link in projections[part]:
            ev = g.evidence.get(link)
            if ev is None or ev.status != "verified":
                bad_evidence = f"{o} -> {part} lacks verified evidence"
                break
        if bad_evidence:
            break
    entries.append(ReportEntry("projection-evidence", not bad_evidence, bad_evidence))

    cones = []
    for name in sorted(g.nodes):
        if name == o:
            continue
        legs = {part: g.links_between(name, part, "splitting") for part in parts}
        if all(legs[part] for part in parts):
            cones.append((name, legs))

    cone_witness = ""
    for name, legs in cones:
        corpus = enumerate_formulas(g.nodes[name].base.sig, corpus_depth, max_var)
        mediators = g.links_between(name, o, "splitting")
        mediated = False
        for mediator in mediators:
            agrees = True
            for part in parts:
                part_ok = False
                for proj in projections[part]:
                    composite = compose_splitting(proj.morphism, mediator.morphism)
                    for leg in legs[part]:
                        if all(
                            apply_splitting(composite, phi) == apply_splitting(leg.morphism, phi)
                            for phi in corpus
                        ):
                            part_ok = True
                            break
                    if part_ok:
                        break
                if not part_ok:
                    agrees = False
                    break
            if agrees:
                mediated = True
                break
        if not mediated:
            cone_witness = f"cone {name} has no commuting mediator to {o}"
            break
    entries.append(
        ReportEntry(
            "cones-mediated",
            not cone_witness,
            cone_witness or f"cones-checked={len(cones)}",
        )
    )

    structural = check_structural(node.effective, samples=12, fuel=fuel, seed=5)
    entries.append(
        ReportEntry(
            "structurality",
            structural.ok,
            "" if structural.ok else next(e.witness for e in structural.entries if not e.ok),
        )
    )
    return Report(entries)


# ---------------------------------------------------------------------------
# Serialization


def _collect_names(g: DevGraph):
    """Deterministic names for the signatures, calculi, and morphisms a
    manifest needs; graph equality never depends on these names."""
    sigs: list[Signature] = []
    for name in sorted(g.nodes):
        base_sig = g.nodes[name].base.sig
        if base_sig not in sigs:
            sigs.append(base_sig)
    for link in g.links:
        if link.morphism is not None:
            for sig in (link.morphism.source, link.morphism.target):
                if sig not in sigs:
                    sigs.append(sig)
    sigs.sort(key=lambda s: emit_signature("_", s))
    sig_names = {sig: f"s{i}" for i, sig in enumerate(sigs)}

    cals: list[CalculusPresentation] = []
    for name in sorted(g.nodes):
        cal = g.nodes[name].base
        if cal not in cals:
            cals.append(cal)
    cals.sort(key=lambda c: emit_calculus("_", c, sig_names[c.sig]))
    cal_names = {cal: f"c{i}" for i, cal in enumerate(cals)}

    # definition links carry morphisms, named h<i>; splitting links carry
    # splittings, named f<i>
    prefixes: dict = {}
    for link in g.links:
        if link.morphism is not None:
            prefixes.setdefault(link.morphism, "h" if link.kind == "definition" else "f")
    texts = {m: emit_map("_", m, sig_names[m.source], sig_names[m.target]) for m in prefixes}
    morphisms = sorted(prefixes, key=texts.__getitem__)
    morphism_names = {m: f"{prefixes[m]}{i}" for i, m in enumerate(morphisms)}
    return sigs, sig_names, cals, cal_names, morphisms, morphism_names


def save_graph(g: DevGraph) -> bytes:
    """Canonical manifest: signatures, calculi, morphisms, nodes by name,
    links in lexicographic order, evidence embedded in the link records."""
    sigs, sig_names, cals, cal_names, morphisms, morphism_names = _collect_names(g)
    chunks: list[str] = []
    for sig in sigs:
        chunks.append(emit_signature(sig_names[sig], sig))
    for cal in cals:
        chunks.append(emit_calculus(cal_names[cal], cal, sig_names[cal.sig]))
    for m in morphisms:
        chunks.append(emit_map(morphism_names[m], m, sig_names[m.source], sig_names[m.target]))
    for name in sorted(g.nodes):
        chunks.append(emit_ontology(name, g.nodes[name], cal_names[g.nodes[name].base]))
    records = []
    for link in g.links:
        morphism = morphism_names.get(link.morphism) if link.morphism else None
        record = LinkRecord(link.kind, link.src, link.dst, morphism, g.evidence[link])
        records.append(emit_link(record))
    chunks.extend(sorted(records))
    return ("\n".join(chunks) + "\n").encode("utf-8")


def load_graph(data: bytes | str) -> DevGraph:
    """Rebuild a graph from a manifest without re-running any checker."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    try:
        doc = parse_document(text)
    except ParseError as exc:
        raise FormatError(f"corrupt manifest: {exc}") from exc
    nodes = dict(doc.ontologies)
    links: list[Link] = []
    evidence: dict[Link, Evidence] = {}
    for record in doc.links:
        if record.src not in nodes or record.dst not in nodes:
            raise FormatError(f"link references unknown node {record.src} -> {record.dst}")
        morphism = None
        if record.morphism is not None:
            morphism = doc.morphisms.get(record.morphism) or doc.splittings.get(record.morphism)
            if morphism is None:
                raise FormatError(f"link references unknown morphism {record.morphism!r}")
        try:
            link = Link(record.kind, record.src, record.dst, morphism)
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
        if record.evidence is None:
            raise FormatError(f"link {record.src} -> {record.dst} lacks evidence")
        links.append(link)
        evidence[link] = record.evidence
    graph = DevGraph(nodes, links, evidence)
    if not graph.is_acyclic():
        raise FormatError("manifest encodes a cyclic graph")
    return graph
