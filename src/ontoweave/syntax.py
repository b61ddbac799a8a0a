"""Signatures, schema variables, formulas, parsing, and bounded enumeration.

Formulas are finite trees over arity-indexed symbols and schema variables
x1, x2, ... (written xi in the DSL). Every formula is hash-consed through a
module-level intern table, so structurally equal formulas are the same
object, and equality and hashing are object identity. Signatures, and the
composite values other modules build on them, are hash-consed the same way
through one value table (Interned).

Hash-consing makes any pure function of interned values safe to memoise, so
closures, fibring queries, signature unions and each presentation's sound
matrices share one least-recently-used memo, MEMO, bounded by MEMO_SLOTS
formula slots.
Signature content is canonical (sorted, deduplicated, no empty level), so
signature inclusion reads the memoised union: c1 <= c2 iff it is c2.

Identity hashes differ from process to process, so iterating a set of
formulas, or of any Interned value, visits them in no reproducible order.
Order comes only from sort_key, the canonical total order (node count,
structural order), where the structural order puts schema variables before
symbol applications, orders variables by index, and orders applications by
arity, then symbol name, then arguments. The key is (size, byte string): the
preorder tokens encoded so that byte order is token order, laid end to end,
so one bytes comparison (a memcmp) decides the structural order.
Enumeration, reports and serialized artifacts all sort by it so that runs
are reproducible.

Each formula also caches its pool frontier (Formula.frontier): the distinct
maximal subtrees of at most a given number of nodes, which is all the
closure engine's pool admission needs to walk.

The whole textual surface (documents, manifests, --phi, gamma lines,
session dumps) goes through one lexer, tokenize, so '#' comments may stand
wherever whitespace may in all of it, and every formula through one
reader, read_formula.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from itertools import product
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ArityError, CapExceeded, ParseError, UnknownSymbol

# The identifier grammar of every name in the textual surface: symbols,
# signatures, calculi, ontologies, maps, and the schema variables among them.
IDENT_PATTERN = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENT_RE = re.compile(IDENT_PATTERN + r"\Z")
# the number token: ASCII digits only
NUMBER_PATTERN = r"[0-9]+"
_NUMBER_RE = re.compile(NUMBER_PATTERN + r"\Z")
_VAR_NAME_RE = re.compile(r"x([1-9][0-9]*)\Z")

DEFAULT_ENUM_CAP = 200_000

# The deepest formula nesting the parsers accept. It stays far below
# Python's recursion limit, so the recursive traversals (text, substitution,
# translation) never overflow on a parsed formula.
MAX_NESTING = 256


class Symbol(NamedTuple):
    """A connective: identity is the (name, arity) pair."""

    name: str
    arity: int

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


def is_identifier(text: str) -> bool:
    return _IDENT_RE.match(text) is not None


class ReadOnly:
    """A value whose attributes are set once, by its constructor through
    _seal, and can then be neither set nor deleted."""

    __slots__ = ()

    def _seal(self, **values: object) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


# Every Interned value built in this process, keyed by (class, content).
_VALUES: dict[tuple, "Interned"] = {}


class Interned(ReadOnly):
    """A read-only value hash-consed like formulas: equal content gives one
    object, so equality and hashing are object identity.

    A subclass's _content normalises the constructor's arguments to a tuple
    that fixes the value, refusing whatever that tuple cannot tell apart;
    its _build runs on a miss only, checks the content and seals the new
    object. A hit re-runs nothing, and an invalid value is never stored.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        content = cls._content(*args, **kwargs)
        self = _VALUES.get((cls, content))
        if self is None:
            self = super().__new__(cls)
            self._build(*content)
            _VALUES[cls, content] = self
        return self


# The memo's budget in formula slots. One pass of the graph-session scripts
# needs about 61k slots and one fibre-alternation pass about 40k.
MEMO_SLOTS = 1 << 18


class Memo:
    """Answers by (function, *arguments), least recently used first. An
    entry takes the slots its put names, one per formula it references; one
    bigger than the whole budget is not stored. No answer is None."""

    def __init__(self, slots: int):
        self.budget = slots
        self.slots = 0
        self.table: OrderedDict[tuple, tuple[object, int]] = OrderedDict()

    def get(self, key: tuple):
        entry = self.table.get(key)
        if entry is None:
            return None
        self.table.move_to_end(key)
        return entry[0]

    def put(self, key: tuple, answer: object, slots: int) -> None:
        if slots > self.budget:
            return
        self.table[key] = answer, slots
        self.slots += slots
        while self.slots > self.budget:
            self.slots -= self.table.popitem(last=False)[1][1]


# looked up as syntax.MEMO on every call, so a replacement serves every caller
MEMO = Memo(MEMO_SLOTS)


class Signature(Interned):
    """An arity-indexed family of finite symbol sets. Interned.

    Every symbol is one a signature block can declare: its name is an
    identifier that names no schema variable and its arity a whole number
    >= 0. Otherwise the constructor raises ParseError, at the first bad
    symbol in (arity, name) order. The checks run before the lookup,
    because Symbol("a", True) == Symbol("a", 1): no key tells them apart.
    """

    __slots__ = ("_levels",)

    @staticmethod
    def _content(levels: Mapping[int, Iterable[Symbol]]) -> tuple:
        cleaned = []
        for arity in sorted(levels):
            syms = sorted(set(levels[arity]))
            for sym in syms:
                if sym.arity != arity:
                    raise ArityError(f"symbol {sym} stored at level {arity}")
                if not is_identifier(sym.name):
                    raise ParseError(f"malformed identifier: {sym.name!r}")
                if _VAR_NAME_RE.match(sym.name):
                    raise ParseError(f"identifier {sym.name!r} is reserved for schema variables")
                if type(sym.arity) is not int:
                    raise ParseError(f"arity of {sym.name!r} is not a whole number")
                if arity < 0:
                    raise ParseError(f"negative arity for {sym.name!r}")
            if syms:
                cleaned.append((arity, tuple(syms)))
        return (tuple(cleaned),)

    def _build(self, levels: tuple) -> None:
        self._seal(_levels=dict(levels))

    def level(self, arity: int) -> tuple[Symbol, ...]:
        return self._levels.get(arity, ())

    def arities(self) -> tuple[int, ...]:
        return tuple(self._levels)

    def symbols(self) -> Iterator[Symbol]:
        """All symbols, sorted by (arity, name)."""
        for arity in self._levels:
            yield from self._levels[arity]

    def constants(self) -> tuple[Symbol, ...]:
        return self.level(0)

    def __contains__(self, sym: Symbol) -> bool:
        return sym in self._levels.get(sym.arity, ())

    def lookup(self, name: str, arity: int) -> Symbol | None:
        sym = Symbol(name, arity)
        return sym if sym in self else None

    def has_name(self, name: str) -> bool:
        return any(sym.name == name for sym in self.symbols())

    def __repr__(self) -> str:
        decls = "; ".join(str(s) for s in self.symbols())
        return f"Signature({decls})"


def make_signature(decls: Iterable[tuple[str, int]]) -> Signature:
    """Build a signature from (name, arity) pairs; duplicates collapse."""
    levels: dict[int, set[Symbol]] = {}
    for name, arity in decls:
        levels.setdefault(arity, set()).add(Symbol(name, arity))
    return Signature(levels)


def signature_union(c1: Signature, c2: Signature) -> Signature:
    """Componentwise union; memoised in MEMO at one slot."""
    key = (signature_union, c1, c2)
    union = MEMO.get(key)
    if union is None:
        union = Signature({a: c1.level(a) + c2.level(a) for a in c1.arities() + c2.arities()})
        MEMO.put(key, union, 1)
    return union


def signature_leq(c1: Signature, c2: Signature) -> bool:
    """Componentwise inclusion, as one memo lookup: content is canonical
    and interned, so c1 <= c2 exactly when their union is c2 itself."""
    return signature_union(c1, c2) is c2


# ---------------------------------------------------------------------------
# Formulas


def _length_prefixed(n: int) -> bytes:
    """A whole number n >= 0 as its big-endian bytes behind their count.

    The count is written as one byte below 255, and as 0xff then the count
    minus 255 otherwise. Byte order on these strings is integer order, and
    none is a prefix of another, so the bytes that follow stay apart.
    """
    body = n.to_bytes((n.bit_length() + 7) // 8, "big")
    count = len(body)
    return b"\xff" * (count // 255) + bytes((count % 255,)) + body


# The sort-key token of each symbol applied so far: 0x01, the length-prefixed
# arity, the UTF-8 name and a 0x00 terminator. Names are identifiers, so no
# name holds 0x00, and the terminator sorts a name before its extensions.
_HEAD_TOKENS: dict[Symbol, bytes] = {}


def _head_token(sym: Symbol) -> bytes:
    token = _HEAD_TOKENS.get(sym)
    if token is None:
        token = _HEAD_TOKENS[sym] = b"\x01" + _length_prefixed(sym.arity) + sym.name.encode() + b"\x00"
    return token


class Formula:
    """A schema variable or a symbol applied to exactly arity-many children.

    Do not call the constructor directly; use svar() and apply_symbol(),
    which intern every node, so equality and hashing are object identity.
    Formulas have no order of their own; sort them by sort_key, whose
    second part is the byte string described there. A node caches its key
    and its pool frontier (frontier), each on itself only.
    """

    __slots__ = ("var", "head", "args", "size", "_skey", "_text", "_vars", "_front")

    var: int | None
    head: Symbol | None
    args: tuple["Formula", ...]
    size: int

    def __init__(self, var, head, args, size):
        self.var = var
        self.head = head
        self.args = args
        self.size = size
        # a leaf's key is its one token, so every key walk stops at leaves
        if args:
            self._skey = None
        elif var is not None:
            self._skey = (1, b"\x00" + _length_prefixed(var))
        else:
            self._skey = (1, _head_token(head))
        self._text = None
        self._vars = None
        self._front = None

    @property
    def is_var(self) -> bool:
        return self.var is not None

    @property
    def sort_key(self) -> tuple[int, bytes]:
        """(node count, token bytes); total and deterministic.

        The bytes are the preorder token sequence: 0x00 and the
        length-prefixed variable index for a variable, _head_token for an
        application. Byte order on variable tokens is index order, on
        application tokens (arity, name) order, and no token is a prefix of
        another, so
        comparing the byte strings orders formulas exactly as comparing
        their token sequences would. A leaf holds its key from the start.
        Any other key is built by a preorder walk without recursion that
        copies in the cached bytes of every subtree that has them, and is
        cached on this node only, so a key costs memory linear in the
        formula's size.
        """
        key = self._skey
        if key is None:
            parts: list[bytes] = []
            stack = [self]
            while stack:
                node = stack.pop()
                if node._skey is not None:
                    parts.append(node._skey[1])
                else:
                    parts.append(_head_token(node.head))
                    stack.extend(reversed(node.args))
            key = self._skey = (self.size, b"".join(parts))
        return key

    def frontier(self, bound: int) -> tuple["Formula", ...]:
        """The distinct maximal subtrees of at most bound nodes: this node
        alone if it is that small, else those of its children, in preorder
        of first occurrence.

        Built by a preorder walk that copies in the frontier a bigger
        subtree has cached at this bound, and cached as (bound, subtrees)
        on this node only when it is bigger than bound; asking with another
        bound recomputes and replaces it. The cache holds subtrees of this
        node, so it keeps nothing alive that the node does not.
        """
        if self.size <= bound:
            return (self,)
        cached = self._front
        if cached is not None and cached[0] == bound:
            return cached[1]
        found: dict[Formula, None] = {}
        stack = list(reversed(self.args))
        while stack:
            node = stack.pop()
            if node.size <= bound:
                found[node] = None
                continue
            cached = node._front
            if cached is not None and cached[0] == bound:
                found.update(dict.fromkeys(cached[1]))
            else:
                stack.extend(reversed(node.args))
        front = tuple(found)
        self._front = (bound, front)
        return front

    @property
    def text(self) -> str:
        if self._text is None:
            if self.var is not None:
                self._text = f"x{self.var}"
            elif not self.args:
                self._text = self.head.name
            else:
                inner = ", ".join(a.text for a in self.args)
                self._text = f"{self.head.name}({inner})"
        return self._text

    @property
    def variables(self) -> frozenset[int]:
        if self._vars is None:
            if self.var is not None:
                self._vars = frozenset((self.var,))
            else:
                acc: set[int] = set()
                for a in self.args:
                    acc |= a.variables
                self._vars = frozenset(acc)
        return self._vars

    def subformulas(self) -> Iterator["Formula"]:
        """Every subtree, in preorder; repeats are possible."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.args))

    def __repr__(self) -> str:
        return self.text


# The sort key of every canonical sort: sorted(formulas, key=by_sort_key).
by_sort_key = attrgetter("sort_key")

_INTERN: dict[tuple, Formula] = {}


def svar(index: int) -> Formula:
    """The schema variable with the given positive index."""
    if index < 1:
        raise ValueError(f"schema variable index must be >= 1, got {index}")
    key = ("v", index)
    node = _INTERN.get(key)
    if node is None:
        node = Formula(index, None, (), 1)
        _INTERN[key] = node
    return node


def apply_symbol(sym: Symbol, args: Iterable[Formula] = ()) -> Formula:
    args = tuple(args)
    if len(args) != sym.arity:
        raise ArityError(f"{sym} applied to {len(args)} argument(s)")
    key = (sym, args)
    node = _INTERN.get(key)
    if node is None:
        node = Formula(None, sym, args, 1 + sum(a.size for a in args))
        _INTERN[key] = node
    return node


def formula_in_language(phi: Formula, sig: Signature) -> bool:
    """Membership in L(sig): every head symbol is declared."""
    return all(node.var is not None or node.head in sig for node in phi.subformulas())


# ---------------------------------------------------------------------------
# Substitution


def substitute(phi: Formula, mapping: Mapping[int, Formula]) -> Formula:
    """phi with every variable xi in mapping replaced by mapping[i] at once;
    the other variables are fixed."""
    if not mapping:
        return phi

    def walk(node: Formula) -> Formula:
        if node.var is not None:
            return mapping.get(node.var, node)
        if not node.variables:
            return node
        return apply_symbol(node.head, tuple(walk(a) for a in node.args))

    return walk(phi)


# ---------------------------------------------------------------------------
# Parsing

# Each match skips whitespace and '#' comments, then takes a token (group 1),
# a character that starts no token (group 2), or the end of the text. The end
# alternative keeps findall from retrying inside a trailing comment, so the
# matches tile the text.
_TOKEN_RE = re.compile(
    r"""\s*(?:\#[^\n]*\s*)*
    (?: ( """ + IDENT_PATTERN + r""" | [{}(),;:/=] | -> | \|- | "[^"\n]*" | """ + NUMBER_PATTERN + r""" )
      | (\S)
      | \Z )""",
    re.VERBOSE,
)


def tokenize(text: str) -> list[str]:
    """The tokens of text; ParseError at the first character that starts
    none, quoting up to 12 characters from it."""
    tokens = []
    for token, bad in _TOKEN_RE.findall(text):
        if bad:
            at = next(m.start(2) for m in _TOKEN_RE.finditer(text) if m.group(2))
            raise ParseError(f"bad token at {text[at:at + 12]!r}")
        if token:
            tokens.append(token)
    return tokens


def read_formula(tokens: Sequence[str], pos: int, sig: Signature) -> tuple[Formula, int]:
    """Read one prefix-form formula from tokens[pos:] against a signature;
    return it with the position just past it.

    This is the one reader of the formula grammar, behind parse_formula and
    the document parser. Raises ParseError for malformed input or nesting
    deeper than MAX_NESTING, UnknownSymbol or ArityError for a symbol the
    signature does not declare.
    """

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of formula")
        pos += 1
        return tokens[pos - 1]

    def node(depth: int) -> Formula:
        nonlocal pos
        if depth > MAX_NESTING:
            raise ParseError(f"formula nested deeper than {MAX_NESTING}")
        tok = take()
        var_match = _VAR_NAME_RE.match(tok)
        if var_match:
            return svar(int(var_match.group(1)))
        if not is_identifier(tok):
            raise ParseError(f"expected a formula, found {tok!r}")
        args = []
        if pos < len(tokens) and tokens[pos] == "(":
            pos += 1
            args.append(node(depth + 1))
            while pos < len(tokens) and tokens[pos] == ",":
                pos += 1
                args.append(node(depth + 1))
            close = take()
            if close != ")":
                raise ParseError(f"expected ')', found {close!r}")
        sym = sig.lookup(tok, len(args))
        if sym is None:
            if sig.has_name(tok):
                raise ArityError(f"{tok!r} is not declared at arity {len(args)}")
            raise UnknownSymbol(f"unknown symbol {tok!r}")
        return apply_symbol(sym, args)

    phi = node(1)
    return phi, pos


class TokenReader:
    """A position in a token list, read left to right: the cursor of the
    document parser and of the session-dump reader."""

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

    def take_number(self) -> int:
        """The number the next token spells; ParseError for '+2', '1_2',
        non-ASCII digits, or more digits than int() converts
        (sys.get_int_max_str_digits)."""
        token = self.take()
        if not _NUMBER_RE.match(token):
            raise ParseError(f"expected a number, found {token!r}")
        try:
            return int(token)
        except ValueError:
            raise ParseError(f"number with {len(token)} digits is too long") from None

    def formula(self, sig: Signature) -> Formula:
        """One formula through read_formula; an undeclared symbol is a
        ParseError here, like every other fault in the text."""
        try:
            phi, self.pos = read_formula(self.tokens, self.pos, sig)
        except (UnknownSymbol, ArityError) as exc:
            raise ParseError(str(exc)) from exc
        return phi


def within_nesting(phi: Formula) -> bool:
    """Whether read_formula can read phi back: phi nests at most MAX_NESTING
    deep, counting a variable or a constant as depth 1."""
    if phi.size <= MAX_NESTING:
        return True  # no formula nests deeper than it has nodes
    depth: dict[Formula, int] = {}
    stack = [phi]
    while stack:
        node = stack[-1]
        todo = [a for a in node.args if a not in depth]
        if todo:
            stack.extend(todo)
        else:
            depth[node] = 1 + max((depth[a] for a in node.args), default=0)
            stack.pop()
    return depth[phi] <= MAX_NESTING


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse the prefix DSL form against a signature."""
    tokens = tokenize(text)
    phi, pos = read_formula(tokens, 0, sig)
    if pos != len(tokens):
        raise ParseError(f"trailing tokens after formula: {tokens[pos:]}")
    return phi


# ---------------------------------------------------------------------------
# Bounded enumeration


def enumerate_formulas(sig: Signature, max_depth: int, max_var: int) -> list[Formula]:
    """Every formula of depth <= max_depth over x1..x(max_var), sorted
    canonically. Deterministic; raises CapExceeded, before building any
    depth, if one would hold more than DEFAULT_ENUM_CAP formulas.
    """
    if max_depth < 1 or max_var < 1:
        raise ValueError("max_depth and max_var must be >= 1")
    arities = [arity for arity in sig.arities() if arity >= 1]
    leaves = max_var + len(sig.constants())
    # count the depths first: each holds the leaves plus every symbol over
    # the one below, so the count never falls and stopping at the first one
    # over the cap, or at the first that adds nothing, decides the cap exactly.
    # A power saturates past the cap: size**bits > cap once size >= 2
    bits = DEFAULT_ENUM_CAP.bit_length()
    depths, size = 1, leaves
    while size <= DEFAULT_ENUM_CAP and depths < max_depth:
        nxt = leaves + sum(len(sig.level(arity)) * size ** min(arity, bits) for arity in arities)
        if nxt == size:
            break  # no symbol of arity >= 1: this is the fixpoint
        depths, size = depths + 1, nxt
    if size > DEFAULT_ENUM_CAP:
        raise CapExceeded(f"enumeration would produce more than {DEFAULT_ENUM_CAP} formulas")
    # each formula is built once: one new at depth d+1 has its first
    # argument new at depth d at some k, older ones before k, any after it
    old: list[Formula] = []
    new = [svar(i) for i in range(1, max_var + 1)]
    new.extend(apply_symbol(c) for c in sig.constants())
    for _ in range(depths - 1):
        both, fresh = old + new, []
        for arity in arities:
            for k in range(arity):
                pools = [old] * k + [new] + [both] * (arity - k - 1)
                for sym in sig.level(arity):
                    fresh.extend(apply_symbol(sym, args) for args in product(*pools))
        old, new = both, fresh
    return sorted(old + new, key=by_sort_key)
