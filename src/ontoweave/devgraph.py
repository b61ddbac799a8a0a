"""Development graphs: a DAG of ontologies with definition, theorem, and
splitting links, machine-checked link evidence, and pattern verifiers for
refinement, integration, and decomposition.

Graphs are persistent values: add_node and add_link return new graphs.
A graph holds each link once, as a key of its evidence map in the order
the links were added, and links is a view of those keys. Theorem
self-links are the one tolerated loop shape, because weakness is reflexive
and a self-link defines nothing; every other cycle is rejected, by the
constructor and by add_link, so every graph is acyclic.

A manifest is written in one pass and parsed once per content. save_graph
emits every part afresh and keeps only the last manifest it wrote beside
its graph, and load_graph hands that graph back when it is given exactly
those bytes. That is exact because no graph its manifest cannot carry back
can be built, so load_graph(save_graph(g)) == g, and because graphs and
every part they hold are read-only. Any other input, a str or a manifest
edited by hand included, is parsed by dsl.read_document, which builds each
link with its map and evidence, and the graph is that document's
ontologies and links.
"""

from __future__ import annotations

import re
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .consequence import (
    ASSERTED,
    Evidence,
    Fuel,
    Report,
    ReportEntry,
    check_structural,
    transfer_evidence,
    weaker_than,
)
from .dsl import (
    Link,
    emit_calculus,
    emit_link,
    emit_map,
    emit_ontology,
    emit_signature,
    read_document,
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
from .syntax import MAX_NESTING, Formula, ReadOnly, is_identifier, within_nesting


class DevGraph(ReadOnly):
    """Immutable snapshot of nodes and links, each link a key of the
    evidence map.

    Each part checks itself when it is built: Signature its symbols,
    CalculusPresentation its schemas and rule shapes, Ontology its name,
    signature inclusion and language, each morphism its totality and
    images, Fuel and Evidence their fields; the interned ones (see
    syntax.Interned) compare by identity. The constructor refuses with
    a ValueError what only a manifest restricts, so that load_graph reads
    back equal whatever save_graph writes: a node not named after its key,
    rule names the parser would not read, a formula nested deeper than
    read_formula reads (see _check_node and _check_link), a link to an
    absent node or closing a cycle, and evidence a link statement cannot
    hold (_evidence_fault). nodes and evidence are read-only mappings, and
    no attribute can be set.
    """

    __slots__ = ("nodes", "evidence")

    def __init__(
        self,
        nodes: Mapping[str, Ontology] | None = None,
        evidence: Mapping[Link, Evidence] | None = None,
    ):
        nodes = dict(nodes or {})
        evidence = dict(evidence or {})
        for name, onto in nodes.items():
            _check_node(name, onto)
        for link, ev in evidence.items():
            _check_link(link, nodes, ev)
        if not _acyclic(nodes, evidence):
            raise ValueError("the links close a cycle")
        self._seal(nodes=MappingProxyType(nodes), evidence=MappingProxyType(evidence))

    @property
    def links(self) -> tuple[Link, ...]:
        """Every link, in the order it was added: a view of evidence's keys."""
        return tuple(self.evidence)

    def links_from(self, src: str, kind: str | None = None) -> list[Link]:
        return [l for l in self.evidence if l.src == src and (kind is None or l.kind == kind)]

    def links_between(self, src: str, dst: str, kind: str | None = None) -> list[Link]:
        return [l for l in self.links_from(src, kind) if l.dst == dst]

    def require_node(self, name: str) -> Ontology:
        node = self.nodes.get(name)
        if node is None:
            raise UnknownNode(f"no node named {name!r}")
        return node

    def __eq__(self, other: object) -> bool:
        # the same links with the same evidence, in any order
        return (
            isinstance(other, DevGraph)
            and self.nodes == other.nodes
            and self.evidence == other.evidence
        )

    def __repr__(self) -> str:
        return f"DevGraph(nodes={sorted(self.nodes)}, links={len(self.evidence)})"


def _grown(nodes: Mapping[str, Ontology], evidence: Mapping[Link, Evidence]) -> DevGraph:
    """A graph from read-only parts; add_node and add_link have checked
    what they added, and the rest was checked when it was built. The
    whole-graph checks of the constructor take 0.9 ms on a graph of 74
    nodes and 250 links (2 shared vCPUs, Python 3.11); running them on every
    add_node and add_link made the benchmark's graph commands a third
    slower."""
    g = object.__new__(DevGraph)
    g._seal(nodes=nodes, evidence=evidence)
    return g


def _check_node(name: str, onto: Ontology) -> None:
    """A manifest names each ontology block by its node, and the parser
    names the ontology after its block. It reads rule names as distinct
    identifiers, and formulas as _check_nesting says."""
    if not isinstance(onto, Ontology) or onto.name != name:
        raise ValueError(f"node {name!r} must hold an ontology named {name!r}")
    base = onto.base
    rules = [rule.name for rule in base.axioms + base.rules]
    if len(set(rules)) < len(rules) or not all(map(is_identifier, rules)):
        raise ValueError(f"node {name!r}: rule names must be distinct identifiers")
    schemas = [phi for rule in base.axioms + base.rules for phi in rule.schemas()]
    _check_nesting(f"node {name!r}", schemas + list(onto.axioms))


def _check_link(link: Link, nodes: Mapping[str, Ontology], evidence: Evidence) -> None:
    fault = _evidence_fault(evidence)
    if link.src not in nodes or link.dst not in nodes:
        fault = "an endpoint is not a node"
    if fault:
        raise ValueError(f"link {link.kind} {link.src} -> {link.dst}: {fault}")
    if isinstance(link.morphism, SplittingMorphism):
        _check_nesting(f"link {link.kind} {link.src} -> {link.dst}", link.morphism.assign.values())


def _check_nesting(what: str, formulas: Iterable[Formula]) -> None:
    """read_formula reads at most MAX_NESTING deep."""
    if not all(map(within_nesting, formulas)):
        raise ValueError(f"{what}: a formula is nested deeper than {MAX_NESTING}")


# what a quoted detail may hold: the lexer's string body, encodable as UTF-8
_DETAIL_RE = re.compile('[^"\n\ud800-\udfff]*')


def _evidence_fault(ev: Evidence) -> str:
    """Why a link statement could not carry ev back unchanged, or "" if it
    can: a manifest holds no refuted evidence, writes ASSERTED as `assert`,
    and quotes the detail on one line without '"'."""
    if ev.status == "refuted":
        return "'refuted' evidence is never stored"
    if ev.status == "asserted" and ev != ASSERTED:
        return "asserted evidence must be ASSERTED"
    if not _DETAIL_RE.fullmatch(ev.detail):
        return "the evidence detail must be one line of text without '\"'"
    return ""


def _acyclic(nodes: Mapping[str, Ontology], links: Iterable[Link]) -> bool:
    """Whether links between the nodes close no cycle, by Kahn's algorithm:
    they close none exactly when repeatedly removing a node with no
    incoming link removes every node. A reflexive theorem link defines
    nothing; any other self-link is a cycle."""
    successors: dict[str, list[str]] = {name: [] for name in nodes}
    indegree = dict.fromkeys(nodes, 0)
    for link in links:
        if link.src == link.dst and link.kind == "theorem":
            continue  # reflexive weakness defines nothing
        successors[link.src].append(link.dst)
        indegree[link.dst] += 1
    ready = [name for name, count in indegree.items() if not count]
    removed = 0
    while ready:
        removed += 1
        for nxt in successors[ready.pop()]:
            indegree[nxt] -= 1
            if not indegree[nxt]:
                ready.append(nxt)
    return removed == len(indegree)


def _closes_cycle(links: Iterable[Link], link: Link) -> bool:
    """Whether adding link to the acyclic links would close a cycle, by
    _acyclic's rule: a reflexive theorem link closes none, any other
    self-link does, and otherwise link closes one exactly when its target
    already reaches its source."""
    if link.src == link.dst:
        return link.kind != "theorem"
    successors: dict[str, list[str]] = {}
    for old in links:
        successors.setdefault(old.src, []).append(old.dst)
    seen = {link.dst}
    stack = [link.dst]
    while stack:
        for nxt in successors.get(stack.pop(), ()):
            if nxt == link.src:
                return True
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


# ---------------------------------------------------------------------------
# Mutations


def add_node(g: DevGraph, o: Ontology, fuel: Fuel) -> DevGraph:
    """Insert a validated ontology under its own name."""
    if o.name in g.nodes:
        raise DuplicateName(f"node {o.name!r} already exists")
    _check_node(o.name, o)
    bad = validate_ontology(o, fuel).failure
    if bad:
        raise ValidationFailed(f"{o.name}: {bad.label} failed: {bad.witness}")
    nodes = g.nodes.copy()
    nodes[o.name] = o
    # a new node has no links, so it closes no cycle
    return _grown(MappingProxyType(nodes), g.evidence)


def check_splitting_morphism(
    f: SplittingMorphism,
    a: Ontology,
    b: Ontology,
    corpus_depth: int,
    fuel: Fuel,
) -> Evidence:
    """Entailment preservation along the induced unfolding, checked by
    transfer_evidence from a's effective calculus to b's: whatever the
    source derives, the image must derive."""
    if f.source != a.base.sig or f.target != b.base.sig:
        raise SignatureError("splitting endpoints do not match the ontologies")
    return transfer_evidence(
        "splitting-morphism", a.effective, b.effective,
        lambda phi: apply_splitting(f, phi), corpus_depth, fuel,
    )


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
    if link in g.evidence:
        raise DuplicateName(f"link {link.kind} {link.src} -> {link.dst} already present")
    if _closes_cycle(g.evidence, link):
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
    _check_link(link, g.nodes, evidence)
    ev = g.evidence.copy()
    ev[link] = evidence
    return _grown(g.nodes, MappingProxyType(ev))


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
    fuel: Fuel,
) -> Report:
    """Check a product-shaped decomposition of o into parts.

    (i) every projection splitting link must carry verified evidence;
    (ii) every registered competing cone (a node with splitting links to all
    parts) must have a mediating splitting link to o whose composite with
    some projection to each part equals one of the cone's legs to that part
    (an exact equality of splitting morphisms, not a corpus scan);
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
            if g.evidence[link].status != "verified":
                bad_evidence = f"{o} -> {part} lacks verified evidence"
                break
        if bad_evidence:
            break
    entries.append(ReportEntry("projection-evidence", not bad_evidence, bad_evidence))

    cones = []
    for name in sorted(g.nodes):
        if name == o:
            continue
        legs = {part: {l.morphism for l in g.links_between(name, part, "splitting")}
                for part in parts}
        if all(legs.values()):
            cones.append((name, legs))

    def commutes(mediator: Link, part: str, legs: set[SplittingMorphism]) -> bool:
        """Some projection to part, composed after the mediator, is a leg."""
        return any(
            compose_splitting(p.morphism, mediator.morphism) in legs for p in projections[part]
        )

    cone_witness = ""
    for name, legs in cones:
        if not any(
            all(commutes(mediator, part, legs[part]) for part in parts)
            for mediator in g.links_between(name, o, "splitting")
        ):
            cone_witness = f"cone {name} has no commuting mediator to {o}"
            break
    entries.append(
        ReportEntry(
            "cones-mediated",
            not cone_witness,
            cone_witness or f"cones-checked={len(cones)}",
        )
    )

    bad_probe = check_structural(node.effective, samples=12, fuel=fuel, seed=5).failure
    entries.append(
        ReportEntry("structurality", not bad_probe, bad_probe.witness if bad_probe else "")
    )
    return Report(entries)


# ---------------------------------------------------------------------------
# Serialization


# the bytes save_graph returned last, and the graph it wrote into them
_last_saved: tuple[bytes, DevGraph] | None = None


def save_graph(g: DevGraph) -> bytes:
    """Canonical manifest: signatures, calculi, morphisms, nodes by name,
    link statements in lexicographic order, each with its evidence.

    Signatures are named s<i>, calculi c<i>, and the maps of definition and
    splitting links h<i> and f<i>, numbered in the order of their texts
    under the name "_" and never in hash order; graph equality never
    depends on these names. Every part is emitted afresh, and the manifest
    and g take the one slot load_graph answers from."""
    global _last_saved
    cals = dict.fromkeys(g.nodes[name].base for name in sorted(g.nodes))
    maps = dict.fromkeys(link.morphism for link in g.evidence if link.morphism is not None)
    sigs = dict.fromkeys([cal.sig for cal in cals] + [s for m in maps for s in (m.source, m.target)])
    sigs = sorted(sigs, key=lambda s: emit_signature("_", s))
    sig_names = {sig: f"s{i}" for i, sig in enumerate(sigs)}
    cals = sorted(cals, key=lambda c: emit_calculus("_", c, sig_names[c.sig]))
    cal_names = {cal: f"c{i}" for i, cal in enumerate(cals)}
    maps = sorted(maps, key=lambda m: emit_map("_", m, sig_names[m.source], sig_names[m.target]))
    map_names = {
        m: f"{'h' if isinstance(m, SignatureMorphism) else 'f'}{i}" for i, m in enumerate(maps)
    }
    chunks = [emit_signature(sig_names[sig], sig) for sig in sigs]
    for cal in cals:
        chunks.append(emit_calculus(cal_names[cal], cal, sig_names[cal.sig]))
    for m in maps:
        chunks.append(emit_map(map_names[m], m, sig_names[m.source], sig_names[m.target]))
    for name in sorted(g.nodes):
        chunks.append(emit_ontology(name, g.nodes[name], cal_names[g.nodes[name].base]))
    # the evidence map holds every link, and the statements are sorted
    chunks.extend(
        sorted(emit_link(link, ev, map_names.get(link.morphism)) for link, ev in g.evidence.items())
    )
    data = ("\n".join(chunks) + "\n").encode("utf-8")
    _last_saved = (data, g)
    return data


def load_graph(data: bytes | str) -> DevGraph:
    """Rebuild a graph from a manifest without re-running any checker.

    Bytes equal to the last manifest save_graph returned give back the graph
    it wrote, equal to the one a parse would build; anything else is parsed.
    """
    saved = _last_saved
    if saved is not None and isinstance(data, bytes) and data == saved[0]:
        return saved[1]
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise FormatError(f"corrupt manifest: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    try:
        doc = read_document(text)
    except ParseError as exc:
        raise FormatError(f"corrupt manifest: {exc}") from exc
    try:
        return DevGraph(doc.ontologies, doc.links)
    except ValueError as exc:
        raise FormatError(f"corrupt manifest: {exc}") from exc
