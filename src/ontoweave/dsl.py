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

Comments run from '#' to end of line. Whitespace is insignificant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .consequence import ASSERTED, CalculusPresentation, Evidence, Fuel, Rule
from .errors import ArityError, OntoSigError, ParseError, SignatureError, UnknownSymbol
from .morphisms import SignatureMorphism, SplittingMorphism
from .ontology import Ontology, make_ontology
from .syntax import IDENT_PATTERN, Formula, Signature, Symbol, is_identifier, make_signature, read_formula

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<arrow>->)
  | (?P<turnstile>\|-)
  | (?P<punct>[{}(),;:/=])
  | (?P<string>"[^"\n]*")
  | (?P<number>[0-9]+)
  | (?P<ident>""" + IDENT_PATTERN + """)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"bad token at {text[pos:pos + 12]!r}")
        if m.lastgroup != "ws":
            tokens.append(m.group(m.lastgroup))
        pos = m.end()
    return tokens


@dataclass
class LinkRecord:
    """A link statement as written, before graph assembly."""

    kind: str
    src: str
    dst: str
    morphism: str | None = None
    evidence: Evidence | None = None


@dataclass
class Document:
    signatures: dict[str, Signature] = field(default_factory=dict)
    calculi: dict[str, CalculusPresentation] = field(default_factory=dict)
    morphisms: dict[str, SignatureMorphism] = field(default_factory=dict)
    splittings: dict[str, SplittingMorphism] = field(default_factory=dict)
    ontologies: dict[str, Ontology] = field(default_factory=dict)
    links: list[LinkRecord] = field(default_factory=list)


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def take_ident(self) -> str:
        tok = self.take()
        if not is_identifier(tok):
            raise ParseError(f"expected an identifier, found {tok!r}")
        return tok

    def take_number(self) -> int:
        tok = self.take()
        if not tok.isdigit():
            raise ParseError(f"expected a number, found {tok!r}")
        return int(tok)

    # -- shared pieces

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

    def formula(self, sig: Signature) -> Formula:
        """One formula through syntax.read_formula; an undeclared symbol is a
        ParseError here, like every other fault in a document."""
        try:
            phi, self.pos = read_formula(self.tokens, self.pos, sig)
        except (UnknownSymbol, ArityError) as exc:
            raise ParseError(str(exc)) from exc
        return phi

    def symbol_ref(self, sig: Signature) -> Symbol:
        name, arity = self.name_arity()
        sym = sig.lookup(name, arity)
        if sym is None:
            raise ParseError(f"symbol {name}/{arity} is not in the signature")
        return sym

    # -- blocks

    def signature_block(self, doc: Document) -> None:
        name = self.take_ident()
        if name in doc.signatures:
            raise ParseError(f"duplicate signature {name!r}")
        doc.signatures[name] = make_signature(self.symbol_decls())

    def calculus_block(self, doc: Document) -> None:
        name = self.take_ident()
        if name in doc.calculi:
            raise ParseError(f"duplicate calculus {name!r}")
        self.take("over")
        sig_name = self.take_ident()
        sig = doc.signatures.get(sig_name)
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
        doc.calculi[name] = CalculusPresentation(sig, axioms, rules, negation)

    def ontology_block(self, doc: Document) -> None:
        name = self.take_ident()
        if name in doc.ontologies:
            raise ParseError(f"duplicate ontology {name!r}")
        self.take("{")
        self.take("base")
        cal_name = self.take_ident()
        self.take(";")
        cal = doc.calculi.get(cal_name)
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
            doc.ontologies[name] = make_ontology(cal, onto_sig, axioms, name)
        except OntoSigError as exc:
            raise ParseError(str(exc)) from exc

    def map_block(self, doc: Document, kind: str, table: dict, cls: type, read_image) -> None:
        """`name : S -> T { sym -> image; ... }` for a morphism (symbol
        images) or a splitting (formula images) block."""
        name = self.take_ident()
        if name in table:
            raise ParseError(f"duplicate {kind} {name!r}")
        self.take(":")
        src = doc.signatures.get(self.take_ident())
        self.take("->")
        dst = doc.signatures.get(self.take_ident())
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

    def link_statement(self, doc: Document) -> None:
        kind = self.take()
        if kind not in ("definition", "theorem", "splitting"):
            raise ParseError(f"unknown link kind {kind!r}")
        src = self.take_ident()
        self.take("->")
        dst = self.take_ident()
        record = LinkRecord(kind=kind, src=src, dst=dst)
        while self.peek() in ("morphism", "assert", "evidence"):
            kw = self.take()
            if kw == "morphism":
                record.morphism = self.take_ident()
            elif kw == "assert":
                record.evidence = ASSERTED
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
                record.evidence = Evidence("verified", fields["depth"], fuel, detail)
        doc.links.append(record)

    def document(self) -> Document:
        doc = Document()
        while self.peek() is not None:
            kw = self.take()
            if kw == "signature":
                self.signature_block(doc)
            elif kw == "calculus":
                self.calculus_block(doc)
            elif kw == "ontology":
                self.ontology_block(doc)
            elif kw == "morphism":
                self.map_block(doc, kw, doc.morphisms, SignatureMorphism, self.symbol_ref)
            elif kw == "splitting":
                self.map_block(doc, kw, doc.splittings, SplittingMorphism, self.formula)
            elif kw == "link":
                self.link_statement(doc)
            else:
                raise ParseError(f"expected a block keyword, found {kw!r}")
        return doc


def parse_document(text: str) -> Document:
    return _Parser(_tokenize(text)).document()


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
    if isinstance(m, SignatureMorphism):
        kind, images = "morphism", {sym: str(image) for sym, image in m.maps.items()}
    else:
        kind, images = "splitting", {sym: body.text for sym, body in m.assign.items()}
    lines = [f"{kind} {name} : {src_name} -> {dst_name} {{"]
    lines.extend(f"  {sym} -> {images[sym]};" for sym in m.source.symbols())
    lines.append("}")
    return "\n".join(lines)


def sanitize_detail(detail: str) -> str:
    return detail.replace('"', "'").replace("\n", " ").replace("\t", " ")


def emit_link(record: LinkRecord) -> str:
    """A link statement: `assert` for asserted evidence, else the evidence
    status, its check parameters and the sanitized detail."""
    parts = [f"link {record.kind} {record.src} -> {record.dst}"]
    if record.morphism:
        parts.append(f"morphism {record.morphism}")
    ev = record.evidence
    if ev.status == "asserted":
        parts.append("assert")
    else:
        fuel = ev.fuel
        parts.append(
            f"evidence {ev.status} depth={ev.corpus_depth} rounds={fuel.max_closure_rounds} "
            f"size={fuel.max_formula_size} set={fuel.max_set_size}"
        )
        if ev.detail:
            parts.append(f'detail "{sanitize_detail(ev.detail)}"')
    return " ".join(parts)
