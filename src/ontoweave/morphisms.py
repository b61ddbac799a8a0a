"""Signature morphisms, splitting morphisms, and fibring translations.

Both kinds of morphism are interned (syntax.Interned) by source, target
and the image of each source symbol, so equality is identity, and their
maps list the source's own symbols in signature order. They check all of
their input before the lookup: the key holds no symbol outside the source,
and an image a/True equals a/1.

The translation machinery realizes the two mutually inverse maps between a
combined language and a component language: variables move to odd indices
(xi becomes x(2i+1)), foreign-headed subtrees collapse to even-indexed
variables x(2g), and g is realized lazily as an interning table that hands
out indices 1, 2, 3, ... at first registration. Each translation memoises
its back-translation: every small-language node is rewritten into the
combined language once per translation, since hash-consing makes the node
its own key and the interning only grows by appending.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .errors import (
    CompositionError,
    LanguageError,
    ParseError,
    SignatureError,
    UnknownInternIndex,
    UnknownSymbol,
)
from .syntax import (
    Formula,
    Interned,
    Signature,
    Symbol,
    apply_symbol,
    parse_formula,
    read_number,
    signature_leq,
    substitute,
    svar,
)


class SignatureMorphism(Interned):
    """A family of per-arity symbol maps, total on the source signature.
    Read-only: maps is a mapping proxy and no attribute can be set."""

    __slots__ = ("source", "target", "maps")

    @staticmethod
    def _content(source: Signature, target: Signature, maps: Mapping[Symbol, Symbol]) -> tuple:
        maps = dict(maps)
        for sym in source.symbols():
            image = maps.get(sym)
            if image is None:
                raise SignatureError(f"morphism is not total: {sym} unmapped")
            if type(image.arity) is not int:
                raise SignatureError(f"image {image} of {sym} has an arity that is not a whole number")
            if image.arity != sym.arity:
                raise SignatureError(f"{sym} maps across arities to {image}")
            if image not in target:
                raise SignatureError(f"image {image} missing from target signature")
        for sym in maps:
            if sym not in source:
                raise SignatureError(f"mapped symbol {sym} not in source signature")
        return source, target, tuple(maps[sym] for sym in source.symbols())

    def _build(self, source, target, images) -> None:
        maps = MappingProxyType(dict(zip(source.symbols(), images)))
        self._seal(source=source, target=target, maps=maps)

    @classmethod
    def identity(cls, sig: Signature) -> "SignatureMorphism":
        return cls(sig, sig, {s: s for s in sig.symbols()})

    def __repr__(self) -> str:
        body = ", ".join(f"{s}->{t}" for s, t in sorted(self.maps.items()))
        return f"SignatureMorphism({body})"


def apply_signature_morphism(h: SignatureMorphism, phi: Formula) -> Formula:
    """Homomorphic extension of h to formulas; variables are fixed."""
    if phi.var is not None:
        return phi
    image = h.maps.get(phi.head)
    if image is None:
        raise UnknownSymbol(f"{phi.head} is outside the morphism source")
    return apply_symbol(image, tuple(apply_signature_morphism(h, a) for a in phi.args))


def is_monomorphic(h: SignatureMorphism) -> bool:
    """True iff every per-arity map is injective."""
    for arity in h.source.arities():
        images = [h.maps[s] for s in h.source.level(arity)]
        if len(set(images)) != len(images):
            return False
    return True


def compose_signature_morphisms(g: SignatureMorphism, h: SignatureMorphism) -> SignatureMorphism:
    """g after h; requires h.target = g.source."""
    if h.target != g.source:
        raise CompositionError("signature morphisms do not compose")
    return SignatureMorphism(h.source, g.target, {s: g.maps[t] for s, t in h.maps.items()})


# ---------------------------------------------------------------------------
# Splitting morphisms


class SplittingMorphism(Interned):
    """Maps each k-ary source symbol to a target formula using exactly x1..xk.
    Read-only: assign is a mapping proxy and no attribute can be set."""

    __slots__ = ("source", "target", "assign")

    @staticmethod
    def _content(source: Signature, target: Signature, assign: Mapping[Symbol, Formula]) -> tuple:
        assign = dict(assign)
        for sym in source.symbols():
            body = assign.get(sym)
            if body is None:
                raise SignatureError(f"splitting is not total: {sym} unmapped")
            wanted = frozenset(range(1, sym.arity + 1))
            if body.variables != wanted:
                raise SignatureError(
                    f"image of {sym} must use exactly x1..x{sym.arity}, got {body.text}"
                )
            for node in body.subformulas():
                if node.var is None and node.head not in target:
                    raise SignatureError(f"image of {sym} uses foreign symbol {node.head}")
        for sym in assign:
            if sym not in source:
                raise SignatureError(f"mapped symbol {sym} not in source signature")
        return source, target, tuple(assign[sym] for sym in source.symbols())

    def _build(self, source, target, bodies) -> None:
        assign = MappingProxyType(dict(zip(source.symbols(), bodies)))
        self._seal(source=source, target=target, assign=assign)

    @classmethod
    def identity(cls, sig: Signature) -> "SplittingMorphism":
        assign = {}
        for sym in sig.symbols():
            assign[sym] = apply_symbol(sym, tuple(svar(i) for i in range(1, sym.arity + 1)))
        return cls(sig, sig, assign)

    def __repr__(self) -> str:
        body = ", ".join(f"{s}->{f.text}" for s, f in sorted(self.assign.items()))
        return f"SplittingMorphism({body})"


def apply_splitting(f: SplittingMorphism, phi: Formula) -> Formula:
    """The induced unfolding: variables fixed, every node rewritten through f."""
    if phi.var is not None:
        return phi
    body = f.assign.get(phi.head)
    if body is None:
        raise UnknownSymbol(f"{phi.head} is outside the splitting source")
    if not phi.args:
        return body
    children = {i + 1: apply_splitting(f, arg) for i, arg in enumerate(phi.args)}
    return substitute(body, children)


def compose_splitting(g: SplittingMorphism, f: SplittingMorphism) -> SplittingMorphism:
    """g after f: each source symbol is sent through f, then unfolded by g."""
    if f.target != g.source:
        raise CompositionError("splitting morphisms do not compose")
    assign = {sym: apply_splitting(g, body) for sym, body in f.assign.items()}
    return SplittingMorphism(f.source, g.target, assign)


# ---------------------------------------------------------------------------
# Interning and translations


class Interning:
    """A growable bijection between formulas and positive indices.

    Indices are handed out in registration order starting at 1, so a fixed
    registration sequence reproduces identical tables across runs.
    """

    def __init__(self) -> None:
        self._by_formula: dict[Formula, int] = {}
        self._by_index: list[Formula] = []
        self._frozen = False

    def __len__(self) -> int:
        return len(self._by_index)

    def register(self, phi: Formula) -> int:
        idx = self._by_formula.get(phi)
        if idx is not None:
            return idx
        if self._frozen:
            raise UnknownInternIndex(f"interning is frozen; {phi.text} unregistered")
        self._by_index.append(phi)
        idx = len(self._by_index)
        self._by_formula[phi] = idx
        return idx

    def index_of(self, phi: Formula) -> int | None:
        return self._by_formula.get(phi)

    def formula_of(self, index: int) -> Formula:
        if index < 1 or index > len(self._by_index):
            raise UnknownInternIndex(f"no formula registered at index {index}")
        return self._by_index[index - 1]

    def has_index(self, index: int) -> bool:
        return 1 <= index <= len(self._by_index)

    @property
    def entries(self) -> tuple[Formula, ...]:
        """The registered formulas in index order: index g is entries[g - 1].
        A snapshot, so a later registration does not show in it."""
        return tuple(self._by_index)

    def freeze(self) -> None:
        """Disallow further growth; reads stay safe to share."""
        self._frozen = True

    def serialize(self) -> str:
        """Line-based dump: index, a tab, the canonical formula text."""
        return "".join(f"{i}\t{f.text}\n" for i, f in enumerate(self._by_index, start=1))

    @classmethod
    def deserialize(cls, text: str, sig: Signature) -> "Interning":
        table = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                index_str, formula_str = line.split("\t", 1)
                index = read_number(index_str)
            except (ValueError, ParseError) as exc:
                raise ParseError(f"bad interning line {lineno}: {raw!r}") from exc
            phi = parse_formula(formula_str, sig)
            got = table.register(phi)
            if got != index:
                raise ParseError(
                    f"interning line {lineno} expects index {index}, table has {got}"
                )
        return table

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Interning) and self._by_index == other._by_index


@dataclass(frozen=True)
class Translation:
    """Mediates between a combined language (big) and a component (small).

    small must be componentwise included in big. One interning may be shared
    by several translations over the same big signature.

    Read-only, so its interning cannot be swapped under _back, the memo of
    substitute_back: each small-language node it has mapped back, with its
    image. Only successes are stored, and an image stays correct because the
    interning never renumbers a registered index. The memo lives and dies
    with the translation.
    """

    small: Signature
    big: Signature
    interning: Interning = field(default_factory=Interning)
    _back: dict[Formula, Formula] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not signature_leq(self.small, self.big):
            raise SignatureError("translation requires small <= big componentwise")


def translate(t: Translation, phi: Formula) -> Formula:
    """Map a big-language formula into the small language.

    Variables xi become x(2i+1); shared symbols recurse; foreign constants
    and foreign-headed subtrees collapse to x(2g), where g is the interning
    index of the original subtree. New subtrees are registered on demand,
    left to right, depth first.
    """
    if phi.var is not None:
        return svar(2 * phi.var + 1)
    if phi.head not in t.big:
        raise LanguageError(f"{phi.text} is not in the combined language")
    if phi.head in t.small:
        if not phi.args:
            return phi
        return apply_symbol(phi.head, tuple(translate(t, a) for a in phi.args))
    return svar(2 * t.interning.register(phi))


def is_back_translatable(t: Translation, phi: Formula) -> bool:
    """True iff every variable of phi is odd with index >= 3, or an even
    index already registered in the interning. So every formula in
    substitute_back's memo passes: its variables all mapped back when it
    was stored, and the interning never drops an index."""
    for v in phi.variables:
        if v % 2 == 1:
            if v < 3:
                return False
        elif not t.interning.has_index(v // 2):
            return False
    return True


def substitute_back(t: Translation, phi: Formula) -> Formula:
    """Inverse direction: odd x(2i+1) back to xi, even x(2i) back to the
    registered subtree, symbols of the small language kept.

    Every node's image is read from, or stored in, the translation's memo;
    a node that raises stores nothing and raises again when asked again."""
    image = t._back.get(phi)
    if image is not None:
        return image
    if phi.var is not None:
        index = phi.var
        if index % 2 == 1:
            i = index // 2
            if i < 1:
                raise UnknownInternIndex(
                    f"x{index} has no preimage: odd indices start at x3"
                )
            image = svar(i)
        else:
            image = t.interning.formula_of(index // 2)
    elif phi.head not in t.small:
        raise LanguageError(f"{phi.text} is not in the component language")
    elif not phi.args:
        image = phi
    else:
        image = apply_symbol(phi.head, tuple(substitute_back(t, a) for a in phi.args))
    t._back[phi] = image
    return image
