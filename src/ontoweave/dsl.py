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

from .consequence import CalculusPresentation, Fuel, Rule
from .errors import ParseError
from .morphisms import SignatureMorphism, SplittingMorphism
from .ontology import Ontology, make_ontology
from .syntax import MAX_NESTING, Formula, Signature, Symbol, apply_symbol, make_signature, svar

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<arrow>->)
  | (?P<turnstile>\|-)
  | (?P<punct>[{}(),;:/=])
  | (?P<string>"[^"\n]*")
  | (?P<number>[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_BLOCK_KEYWORDS = ("signature", "calculus", "ontology", "morphism", "splitting", "link")


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
    asserted: bool = False
    evidence_status: str | None = None
    evidence_depth: int | None = None
    evidence_fuel: Fuel | None = None
    evidence_detail: str = ""


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
        if not re.match(r"[A-Za-z_][A-Za-z0-9_]*\Z", tok):
            raise ParseError(f"expected an identifier, found {tok!r}")
        return tok

    def take_number(self) -> int:
        tok = self.take()
        if not tok.isdigit():
            raise ParseError(f"expected a number, found {tok!r}")
        return int(tok)

    # -- shared pieces

    def symbol_decls(self) -> list[tuple[str, int]]:
        """name/arity pairs between braces, separated by optional ';'."""
        decls = []
        self.take("{")
        while self.peek() != "}":
            name = self.take_ident()
            self.take("/")
            arity = self.take_number()
            decls.append((name, arity))
            if self.peek() == ";":
                self.take(";")
        self.take("}")
        return decls

    def formula(self, sig: Signature, depth: int = 1) -> Formula:
        if depth > MAX_NESTING:
            raise ParseError(f"formula nested deeper than {MAX_NESTING}")
        tok = self.take()
        var_match = re.match(r"x([1-9][0-9]*)\Z", tok)
        if var_match:
            return svar(int(var_match.group(1)))
        if not re.match(r"[A-Za-z_][A-Za-z0-9_]*\Z", tok):
            raise ParseError(f"expected a formula, found {tok!r}")
        if self.peek() == "(":
            self.take("(")
            args = [self.formula(sig, depth + 1)]
            while self.peek() == ",":
                self.take(",")
                args.append(self.formula(sig, depth + 1))
            self.take(")")
            sym = sig.lookup(tok, len(args))
            if sym is None:
                raise ParseError(f"unknown symbol {tok!r} at arity {len(args)}")
            return apply_symbol(sym, args)
        sym = sig.lookup(tok, 0)
        if sym is None:
            raise ParseError(f"unknown constant {tok!r}")
        return apply_symbol(sym)

    def symbol_ref(self, sig: Signature) -> Symbol:
        name = self.take_ident()
        self.take("/")
        arity = self.take_number()
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
            if kw == "axiom":
                rname = self.take_ident()
                self.take(":")
                concl = self.formula(sig)
                self.take(";")
                if rname in seen_names:
                    raise ParseError(f"duplicate rule name {rname!r} in calculus {name!r}")
                seen_names.add(rname)
                axioms.append(Rule(rname, (), concl))
            elif kw == "rule":
                rname = self.take_ident()
                self.take(":")
                premises = [self.formula(sig)]
                while self.peek() == ",":
                    self.take(",")
                    premises.append(self.formula(sig))
                self.take("|-")
                concl = self.formula(sig)
                self.take(";")
                if rname in seen_names:
                    raise ParseError(f"duplicate rule name {rname!r} in calculus {name!r}")
                seen_names.add(rname)
                rules.append(Rule(rname, tuple(premises), concl))
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
        doc.ontologies[name] = make_ontology(cal, onto_sig, axioms, name)

    def morphism_block(self, doc: Document) -> None:
        name = self.take_ident()
        if name in doc.morphisms:
            raise ParseError(f"duplicate morphism {name!r}")
        self.take(":")
        src = doc.signatures.get(self.take_ident())
        self.take("->")
        dst = doc.signatures.get(self.take_ident())
        if src is None or dst is None:
            raise ParseError(f"morphism {name!r} references an unknown signature")
        maps = {}
        self.take("{")
        while self.peek() != "}":
            source_sym = self.symbol_ref(src)
            self.take("->")
            target_sym = self.symbol_ref(dst)
            self.take(";")
            maps[source_sym] = target_sym
        self.take("}")
        doc.morphisms[name] = SignatureMorphism(src, dst, maps)

    def splitting_block(self, doc: Document) -> None:
        name = self.take_ident()
        if name in doc.splittings:
            raise ParseError(f"duplicate splitting {name!r}")
        self.take(":")
        src = doc.signatures.get(self.take_ident())
        self.take("->")
        dst = doc.signatures.get(self.take_ident())
        if src is None or dst is None:
            raise ParseError(f"splitting {name!r} references an unknown signature")
        assign = {}
        self.take("{")
        while self.peek() != "}":
            source_sym = self.symbol_ref(src)
            self.take("->")
            assign[source_sym] = self.formula(dst)
            self.take(";")
        self.take("}")
        doc.splittings[name] = SplittingMorphism(src, dst, assign)

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
                record.asserted = True
                record.evidence_status = "asserted"
            else:
                status = self.take()
                if status != "verified":
                    raise ParseError(f"unknown evidence status {status!r}")
                record.evidence_status = "verified"
                fields = {}
                for key in ("depth", "rounds", "size", "set"):
                    got = self.take()
                    if got != key:
                        raise ParseError(f"expected evidence field {key!r}, found {got!r}")
                    self.take("=")
                    fields[key] = self.take_number()
                record.evidence_depth = fields["depth"]
                record.evidence_fuel = Fuel(fields["rounds"], fields["size"], fields["set"])
                if self.peek() == "detail":
                    self.take("detail")
                    raw = self.take()
                    if not (raw.startswith('"') and raw.endswith('"')):
                        raise ParseError("evidence detail must be a quoted string")
                    record.evidence_detail = raw[1:-1]
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
                self.morphism_block(doc)
            elif kw == "splitting":
                self.splitting_block(doc)
            elif kw == "link":
                self.link_statement(doc)
            else:
                raise ParseError(f"expected a block keyword, found {kw!r}")
        return doc


def parse_document(text: str) -> Document:
    return _Parser(_tokenize(text)).document()


# ---------------------------------------------------------------------------
# Canonical emitters


def emit_signature(name: str, sig: Signature) -> str:
    decls = " ".join(f"{s.name}/{s.arity};" for s in sig.symbols())
    inner = f" {decls} " if decls else " "
    return f"signature {name} {{{inner}}}"


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
    decls = " ".join(f"{s.name}/{s.arity};" for s in onto.onto_sig.symbols())
    sig_inner = f" {decls} " if decls else " "
    lines = [
        f"ontology {name} {{",
        f"  base {cal_name};",
        f"  onto_signature {{{sig_inner}}}",
        "  axioms {",
    ]
    for phi in onto.axioms:
        lines.append(f"    {phi.text};")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def emit_morphism(name: str, h: SignatureMorphism, src_name: str, dst_name: str) -> str:
    lines = [f"morphism {name} : {src_name} -> {dst_name} {{"]
    for sym in h.source.symbols():
        image = h.maps[sym]
        lines.append(f"  {sym.name}/{sym.arity} -> {image.name}/{image.arity};")
    lines.append("}")
    return "\n".join(lines)


def emit_splitting(name: str, f: SplittingMorphism, src_name: str, dst_name: str) -> str:
    lines = [f"splitting {name} : {src_name} -> {dst_name} {{"]
    for sym in f.source.symbols():
        lines.append(f"  {sym.name}/{sym.arity} -> {f.assign[sym].text};")
    lines.append("}")
    return "\n".join(lines)


def sanitize_detail(detail: str) -> str:
    return detail.replace('"', "'").replace("\n", " ").replace("\t", " ")


def emit_link(record: LinkRecord) -> str:
    parts = [f"link {record.kind} {record.src} -> {record.dst}"]
    if record.morphism:
        parts.append(f"morphism {record.morphism}")
    if record.asserted:
        parts.append("assert")
    elif record.evidence_status == "verified":
        fuel = record.evidence_fuel
        parts.append(
            "evidence verified depth={} rounds={} size={} set={}".format(
                record.evidence_depth,
                fuel.max_closure_rounds,
                fuel.max_formula_size,
                fuel.max_set_size,
            )
        )
        if record.evidence_detail:
            parts.append(f'detail "{sanitize_detail(record.evidence_detail)}"')
    return " ".join(parts)
