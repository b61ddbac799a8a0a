"""The textual surface: signature, calculus, ontology, morphism, splitting,
and link blocks, plus canonical emitters for bit-exact round trips.

    signature CPL { bot/0; not/1; imp/2; }
    calculus cpl over CPL {
      axiom A1: imp(x1, imp(x2, x1));
      rule MP: x1, imp(x1, x2) |- x2;
      negation not;
    }
    ontology O1 {
      base cpl;
      onto_signature { bot/0; }
      axioms { imp(bot, x1); }
    }
    morphism h0 : CPL -> CPL { bot/0 -> bot/0; not/1 -> not/1; imp/2 -> imp/2; }
    splitting f0 : NAND -> CPL { nand/2 -> not(imp(x1, not(x2))); }
    link theorem O1 -> O2 assert
    link definition O1 -> O2 morphism h0 evidence verified depth=2 rounds=4 size=16 set=4096 detail "..."

Comments run from '#' to end of line. Whitespace is insignificant. The
tokens come from syntax.tokenize, the one lexer of every textual input, and
are read through syntax.TokenReader, so every formula through
syntax.read_formula.

read_document parses a text afresh. parse_document, the reader of defs
files, parses each text once: it keeps the Documents of the
DOCUMENT_MEMO_SIZE texts it read most recently, keyed by the full text
(never a path or an mtime), so an edited file is always parsed again. A
text that fails is not remembered, so it fails again with the same
message. A Document is read-only throughout (mapping proxies and frozen
Links), so no caller can change what a later one is handed. Manifests go
through read_document: devgraph keeps its own slot for them.

A link statement is read into its Link and its Evidence. Its `morphism
NAME` names a splitting block for a splitting link and a morphism block
otherwise, declared earlier in the text. A name no such block declares, a
map the link kind cannot carry, a statement with neither `assert` nor
`evidence`, a statement with two `morphism` clauses or two evidence clauses
(`assert` or `evidence`), and a link written twice are each a ParseError.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .consequence import ASSERTED, CalculusPresentation, Evidence, Fuel, Rule
from .errors import OntoSigError, ParseError, SignatureError
from .morphisms import SignatureMorphism, SplittingMorphism
from .ontology import Ontology
from .syntax import Signature, Symbol, TokenReader, is_identifier, make_signature, tokenize


# how many texts parse_document remembers: a CLI command reads one defs
# file, and a run of graph commands on one defs file asks for one text
DOCUMENT_MEMO_SIZE = 1


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


@dataclass(frozen=True)
class Document:
    """A parsed text: each block kind's table by name, and each link
    statement's Link and Evidence in text order. Read-only."""

    signatures: Mapping[str, Signature]
    calculi: Mapping[str, CalculusPresentation]
    morphisms: Mapping[str, SignatureMorphism]
    splittings: Mapping[str, SplittingMorphism]
    ontologies: Mapping[str, Ontology]
    links: Mapping[Link, Evidence]


class _Parser(TokenReader):
    def __init__(self, tokens: list[str]):
        super().__init__(tokens)
        self.signatures: dict[str, Signature] = {}
        self.calculi: dict[str, CalculusPresentation] = {}
        self.morphisms: dict[str, SignatureMorphism] = {}
        self.splittings: dict[str, SplittingMorphism] = {}
        self.ontologies: dict[str, Ontology] = {}
        self.links: dict[Link, Evidence] = {}

    def take_ident(self) -> str:
        tok = self.take()
        if not is_identifier(tok):
            raise ParseError(f"expected an identifier, found {tok!r}")
        return tok

    # -- shared pieces

    def new_name(self, kind: str, table: Mapping[str, object]) -> str:
        """The name a block declares; refused when table already holds it."""
        name = self.take_ident()
        if name in table:
            raise ParseError(f"duplicate {kind} {name!r}")
        return name

    def name_arity(self) -> tuple[str, int]:
        name = self.take_ident()
        self.take("/")
        return name, self.take_number()

    def symbol_decls(self) -> list[tuple[str, int]]:
        """name/arity pairs between braces, separated by optional ';'."""
        decls = []
        self.take("{")
        while self.peek() != "}":
            decls.append(self.name_arity())
            if self.peek() == ";":
                self.take(";")
        self.take("}")
        return decls

    def symbol_ref(self, sig: Signature) -> Symbol:
        name, arity = self.name_arity()
        sym = sig.lookup(name, arity)
        if sym is None:
            raise ParseError(f"symbol {name}/{arity} is not in the signature")
        return sym

    # -- blocks

    def signature_block(self) -> None:
        name = self.new_name("signature", self.signatures)
        self.signatures[name] = make_signature(self.symbol_decls())

    def calculus_block(self) -> None:
        name = self.new_name("calculus", self.calculi)
        self.take("over")
        sig_name = self.take_ident()
        sig = self.signatures.get(sig_name)
        if sig is None:
            raise ParseError(f"calculus {name!r} references unknown signature {sig_name!r}")
        axioms: list[Rule] = []
        rules: list[Rule] = []
        negation = None
        seen_names: set[str] = set()
        self.take("{")
        while self.peek() != "}":
            kw = self.take()
            if kw in ("axiom", "rule"):
                rname = self.take_ident()
                self.take(":")
                premises = []
                if kw == "rule":
                    premises.append(self.formula(sig))
                    while self.peek() == ",":
                        self.take(",")
                        premises.append(self.formula(sig))
                    self.take("|-")
                concl = self.formula(sig)
                self.take(";")
                if rname in seen_names:
                    raise ParseError(f"duplicate rule name {rname!r} in calculus {name!r}")
                seen_names.add(rname)
                (rules if premises else axioms).append(Rule(rname, tuple(premises), concl))
            elif kw == "negation":
                sym_name = self.take_ident()
                self.take(";")
                sym = sig.lookup(sym_name, 1)
                if sym is None:
                    raise ParseError(f"negation {sym_name!r} is not a unary symbol")
                negation = sym
            else:
                raise ParseError(f"unexpected {kw!r} in calculus block")
        self.take("}")
        self.calculi[name] = CalculusPresentation(sig, axioms, rules, negation)

    def ontology_block(self) -> None:
        name = self.new_name("ontology", self.ontologies)
        self.take("{")
        self.take("base")
        cal_name = self.take_ident()
        self.take(";")
        cal = self.calculi.get(cal_name)
        if cal is None:
            raise ParseError(f"ontology {name!r} references unknown calculus {cal_name!r}")
        self.take("onto_signature")
        onto_sig = make_signature(self.symbol_decls())
        self.take("axioms")
        self.take("{")
        axioms = []
        while self.peek() != "}":
            axioms.append(self.formula(cal.sig))
            self.take(";")
        self.take("}")
        self.take("}")
        try:
            self.ontologies[name] = Ontology(name, cal, onto_sig, axioms)
        except OntoSigError as exc:
            raise ParseError(str(exc)) from exc

    def map_block(self, kind: str, table: dict, cls: type, read_image) -> None:
        """`name : S -> T { sym -> image; ... }` for a morphism (symbol
        images) or a splitting (formula images) block."""
        name = self.new_name(kind, table)
        self.take(":")
        src = self.signatures.get(self.take_ident())
        self.take("->")
        dst = self.signatures.get(self.take_ident())
        if src is None or dst is None:
            raise ParseError(f"{kind} {name!r} references an unknown signature")
        images = {}
        self.take("{")
        while self.peek() != "}":
            source_sym = self.symbol_ref(src)
            self.take("->")
            images[source_sym] = read_image(dst)
            self.take(";")
        self.take("}")
        try:
            table[name] = cls(src, dst, images)
        except SignatureError as exc:
            raise ParseError(f"{kind} {name!r}: {exc}") from exc

    def link_statement(self) -> None:
        kind = self.take()
        if kind not in ("definition", "theorem", "splitting"):
            raise ParseError(f"unknown link kind {kind!r}")
        src = self.take_ident()
        self.take("->")
        dst = self.take_ident()
        name = morphism = evidence = None
        clauses = set()
        while self.peek() in ("morphism", "assert", "evidence"):
            kw = self.take()
            clause = "morphism" if kw == "morphism" else "evidence"
            if clause in clauses:
                raise ParseError(f"link {kind} {src} -> {dst} has more than one {clause} clause")
            clauses.add(clause)
            if kw == "morphism":
                name = self.take_ident()
            elif kw == "assert":
                evidence = ASSERTED
            else:
                status = self.take()
                if status != "verified":
                    raise ParseError(f"unknown evidence status {status!r}")
                fields = {}
                for key in ("depth", "rounds", "size", "set"):
                    got = self.take()
                    if got != key:
                        raise ParseError(f"expected evidence field {key!r}, found {got!r}")
                    self.take("=")
                    fields[key] = self.take_number()
                try:
                    fuel = Fuel(fields["rounds"], fields["size"], fields["set"])
                except ValueError as exc:
                    raise ParseError(f"bad evidence fuel: {exc}") from exc
                detail = ""
                if self.peek() == "detail":
                    self.take("detail")
                    raw = self.take()
                    if not (raw.startswith('"') and raw.endswith('"')):
                        raise ParseError("evidence detail must be a quoted string")
                    detail = raw[1:-1]
                evidence = Evidence("verified", fields["depth"], fuel, detail)
        if name is not None:
            morphism = (self.splittings if kind == "splitting" else self.morphisms).get(name)
            if morphism is None:
                raise ParseError(f"link references unknown morphism {name!r}")
        try:
            link = Link(kind, src, dst, morphism)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        if evidence is None:
            raise ParseError(f"link {kind} {src} -> {dst} lacks evidence")
        if link in self.links:
            raise ParseError(f"link {kind} {src} -> {dst} is repeated")
        self.links[link] = evidence

    def document(self) -> Document:
        while self.peek() is not None:
            kw = self.take()
            if kw == "signature":
                self.signature_block()
            elif kw == "calculus":
                self.calculus_block()
            elif kw == "ontology":
                self.ontology_block()
            elif kw == "morphism":
                self.map_block(kw, self.morphisms, SignatureMorphism, self.symbol_ref)
            elif kw == "splitting":
                self.map_block(kw, self.splittings, SplittingMorphism, self.formula)
            elif kw == "link":
                self.link_statement()
            else:
                raise ParseError(f"expected a block keyword, found {kw!r}")
        return Document(
            MappingProxyType(self.signatures),
            MappingProxyType(self.calculi),
            MappingProxyType(self.morphisms),
            MappingProxyType(self.splittings),
            MappingProxyType(self.ontologies),
            MappingProxyType(self.links),
        )


def read_document(text: str) -> Document:
    """The Document of text, parsed afresh."""
    return _Parser(tokenize(text)).document()


@functools.lru_cache(maxsize=DOCUMENT_MEMO_SIZE)
def parse_document(text: str) -> Document:
    """The Document of text; equal texts get the same read-only Document."""
    return read_document(text)


# ---------------------------------------------------------------------------
# Canonical emitters


def _emit_decls(sig: Signature) -> str:
    """A signature's symbols between braces: `{ a/0; f/2; }`, or `{ }`."""
    return "{" + "".join(f" {sym};" for sym in sig.symbols()) + " }"


def emit_signature(name: str, sig: Signature) -> str:
    return f"signature {name} {_emit_decls(sig)}"


def emit_calculus(name: str, cal: CalculusPresentation, sig_name: str) -> str:
    lines = [f"calculus {name} over {sig_name} {{"]
    for rule in cal.axioms:
        lines.append(f"  axiom {rule.name}: {rule.conclusion.text};")
    for rule in cal.rules:
        premises = ", ".join(p.text for p in rule.premises)
        lines.append(f"  rule {rule.name}: {premises} |- {rule.conclusion.text};")
    if cal.negation is not None:
        lines.append(f"  negation {cal.negation.name};")
    lines.append("}")
    return "\n".join(lines)


def emit_ontology(name: str, onto: Ontology, cal_name: str) -> str:
    lines = [
        f"ontology {name} {{",
        f"  base {cal_name};",
        f"  onto_signature {_emit_decls(onto.onto_sig)}",
        "  axioms {",
    ]
    for phi in onto.axioms:
        lines.append(f"    {phi.text};")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def emit_map(
    name: str, m: SignatureMorphism | SplittingMorphism, src_name: str, dst_name: str
) -> str:
    """A morphism block (symbol images) or a splitting block (formula
    images), one line per source symbol in signature order."""
    # maps and assign hold the source symbols in signature order
    if isinstance(m, SignatureMorphism):
        kind, lines = "morphism", [f"  {sym} -> {image};" for sym, image in m.maps.items()]
    else:
        kind, lines = "splitting", [f"  {sym} -> {body.text};" for sym, body in m.assign.items()]
    return "\n".join([f"{kind} {name} : {src_name} -> {dst_name} {{", *lines, "}"])


def emit_link(link: Link, ev: Evidence, morphism_name: str | None) -> str:
    """A link statement, its map cited as morphism_name: `assert` for
    asserted evidence, else the evidence status, its check parameters and
    the detail, which DevGraph keeps to one quotable line."""
    parts = [f"link {link.kind} {link.src} -> {link.dst}"]
    if morphism_name:
        parts.append(f"morphism {morphism_name}")
    if ev.status == "asserted":
        parts.append("assert")
    else:
        fuel = ev.fuel
        parts.append(
            f"evidence {ev.status} depth={ev.corpus_depth} rounds={fuel.max_closure_rounds} "
            f"size={fuel.max_formula_size} set={fuel.max_set_size}"
        )
        if ev.detail:
            parts.append(f'detail "{ev.detail}"')
    return " ".join(parts)
