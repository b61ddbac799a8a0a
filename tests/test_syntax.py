"""Signatures, formulas, parsing, substitution, and enumeration."""

import itertools
import re
import string

import pytest
from hypothesis import given, strategies as st

from ontoweave import consequence
from ontoweave.consequence import CalculusPresentation, Rule
from ontoweave.dsl import read_document
from ontoweave.errors import ArityError, CapExceeded, ParseError, SignatureError, UnknownSymbol
from ontoweave.morphisms import SignatureMorphism, SplittingMorphism
from ontoweave.ontology import Ontology
from ontoweave.syntax import (
    IDENT_PATTERN,
    Interned,
    Signature,
    Symbol,
    apply_symbol,
    count_formulas,
    enumerate_formulas,
    formula_in_language,
    make_signature,
    parse_formula,
    read_formula,
    signature_leq,
    signature_union,
    substitute,
    svar,
    tokenize,
)

CPL_DECLS = [("bot", 0), ("not", 1), ("imp", 2)]


def test_make_signature_empty():
    sig = make_signature([])
    assert sig.is_empty()
    assert list(sig.symbols()) == []


def test_make_signature_levels():
    sig = make_signature(CPL_DECLS)
    assert sig.level(0) == (Symbol("bot", 0),)
    assert sig.level(1) == (Symbol("not", 1),)
    assert sig.level(2) == (Symbol("imp", 2),)


def test_make_signature_deduplicates():
    sig = make_signature([("not", 1), ("not", 1)])
    assert sig.level(1) == (Symbol("not", 1),)


def test_make_signature_rejects_bad_identifiers():
    with pytest.raises(ParseError):
        make_signature([("2bad", 1)])
    with pytest.raises(ParseError):
        make_signature([("", 0)])
    with pytest.raises(ParseError):
        make_signature([("x1", 0)])  # reserved variable spelling


def test_symbol_identity_is_name_and_arity():
    sig = signature_union(make_signature([("not", 1)]), make_signature([("not", 2)]))
    assert sig.level(1) == (Symbol("not", 1),)
    assert sig.level(2) == (Symbol("not", 2),)


def test_signature_union_and_idempotence():
    a = make_signature([("and", 2)])
    b = make_signature([("or", 2)])
    u = signature_union(a, b)
    assert set(u.level(2)) == {Symbol("and", 2), Symbol("or", 2)}
    assert signature_union(a, a) == a


def test_signature_leq():
    small = make_signature([("not", 1)])
    big = make_signature([("not", 1), ("imp", 2)])
    assert signature_leq(small, big)
    assert signature_leq(big, big)
    assert not signature_leq(make_signature([("and", 2)]), make_signature([("or", 2)]))


def test_union_is_join_for_leq():
    a = make_signature([("and", 2), ("bot", 0)])
    b = make_signature([("or", 2)])
    c = make_signature([("and", 2), ("or", 2), ("bot", 0), ("top", 0)])
    u = signature_union(a, b)
    assert signature_leq(a, u) and signature_leq(b, u)
    assert signature_leq(u, c)
    # commutative and associative
    assert u == signature_union(b, a)
    d = make_signature([("imp", 2)])
    assert signature_union(signature_union(a, b), d) == signature_union(a, signature_union(b, d))


# -- the value table: composite values are hash-consed like formulas

TABLE_SIG = make_signature([("a", 0), ("b", 0), ("f", 1), ("g", 2)])
TABLE_DEFS = """
signature S { a/0; b/0; f/1; g/2; }
calculus c over S { rule R2: f(x1) |- x1; rule R1: g(x1, x2) |- x2; axiom A: f(a); }
ontology O { base c; onto_signature { f/1; } axioms { f(b); a; f(b); } }
morphism h : S -> S { g/2 -> g/2; f/1 -> f/1; b/0 -> a/0; a/0 -> b/0; }
splitting s : S -> S { f/1 -> g(x1, x1); a/0 -> b; b/0 -> a; g/2 -> g(x2, x1); }
"""


def table_formula(text):
    return parse_formula(text, TABLE_SIG)


def test_equal_content_is_one_value():
    a, b, f, g = TABLE_SIG.symbols()
    assert Signature({0: [b, a, a], 2: [g], 1: [f]}) is TABLE_SIG
    rules = [Rule("R1", (table_formula("g(x1, x2)"),), svar(2)),
             Rule("R2", (table_formula("f(x1)"),), svar(1))]
    axiom = [Rule("A", (), table_formula("f(a)"))]
    cal = CalculusPresentation(TABLE_SIG, axiom, rules)
    assert CalculusPresentation(TABLE_SIG, axiom, rules[::-1]) is cal
    axioms = [table_formula("f(b)"), table_formula("a")]
    onto = Ontology("O", cal, make_signature([("f", 1)]), axioms)
    assert Ontology("O", cal, make_signature([("f", 1)]), axioms[::-1] + axioms) is onto
    images = {a: b, b: a, f: f, g: g}
    h = SignatureMorphism(TABLE_SIG, TABLE_SIG, images)
    assert SignatureMorphism(TABLE_SIG, TABLE_SIG, dict(reversed(images.items()))) is h
    bodies = dict(zip([g, b, a, f], map(table_formula, ["g(x2, x1)", "a", "b", "g(x1, x1)"])))
    s = SplittingMorphism(TABLE_SIG, TABLE_SIG, bodies)
    assert SplittingMorphism(TABLE_SIG, TABLE_SIG, dict(reversed(bodies.items()))) is s
    # maps are keyed by the source's symbols in signature order, whatever the input order
    assert list(h.maps) == list(s.assign) == [a, b, f, g]
    # two parses of one text build no new value
    for doc in (read_document(TABLE_DEFS), read_document(TABLE_DEFS)):
        assert doc.signatures["S"] is TABLE_SIG and doc.calculi["c"] is cal
        assert doc.ontologies["O"] is onto
        assert doc.morphisms["h"] is h and doc.splittings["s"] is s


def test_one_table_serves_every_composite_value():
    assert not hasattr(consequence, "_PRESENTATIONS")
    for cls in (Signature, CalculusPresentation, Ontology, SignatureMorphism, SplittingMorphism):
        assert issubclass(cls, Interned)
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
        assert not {"_key", "_hash"} & set(cls.__slots__)


def test_refused_input_stays_refused_after_a_valid_twin():
    """True == 1 and 1.0 == 1, so only a check before the lookup tells these
    from their valid twins; a refused value is never stored."""
    a1 = Symbol("a", 1)
    sig = Signature({1: [a1]})
    rule = Rule("R", (), svar(1))
    assert SignatureMorphism.identity(sig).maps == {a1: a1}
    CalculusPresentation(sig, axioms=[rule])
    for _ in range(2):
        for arity in (True, 1.0):
            with pytest.raises(ParseError, match="^arity of 'a' is not a whole number$"):
                Signature({1: [Symbol("a", arity)]})
        with pytest.raises(SignatureError, match="^image a/True of a/1 has an arity that is not"):
            SignatureMorphism(sig, sig, {a1: Symbol("a", True)})
        with pytest.raises(ValueError, match="^rule 'R' has no premises$"):
            CalculusPresentation(sig, rules=[rule])


# -- parsing and printing


def test_parse_simple():
    sig = make_signature(CPL_DECLS)
    phi = parse_formula("imp(x1, x1)", sig)
    assert phi.head == Symbol("imp", 2)
    assert phi.args[0] is svar(1)
    assert phi.text == "imp(x1, x1)"


def test_parse_bare_variable():
    assert parse_formula("x1", make_signature([])) is svar(1)


def test_parse_arity_mismatch():
    sig = make_signature(CPL_DECLS)
    with pytest.raises(ArityError):
        parse_formula("imp(x1)", sig)


def test_parse_unknown_symbol():
    sig = make_signature(CPL_DECLS)
    with pytest.raises(UnknownSymbol):
        parse_formula("box(x1)", sig)


def test_read_formula_returns_the_next_position():
    sig = make_signature(CPL_DECLS)
    tokens = ["imp", "(", "x1", ",", "bot", ")", ";", "x2"]
    phi, pos = read_formula(tokens, 0, sig)
    assert phi is parse_formula("imp(x1, bot)", sig)
    assert (tokens[pos], read_formula(tokens, pos + 1, sig)) == (";", (svar(2), 8))


def test_parse_bad_token():
    sig = make_signature(CPL_DECLS)
    with pytest.raises(ParseError):
        parse_formula("imp(x1, %)", sig)
    with pytest.raises(ParseError):
        parse_formula("imp(x1, x2) x3", sig)


def test_whitespace_insignificant():
    sig = make_signature(CPL_DECLS)
    a = parse_formula("imp( x1 ,x2 )", sig)
    b = parse_formula("imp(x1, x2)", sig)
    assert a is b
    assert parse_formula("imp(x1, # the minor premise\n x2)  # note", sig) is b


# -- the lexer, against the two tokenizers it replaced


_OLD_DOCUMENT_RE = re.compile(
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
_OLD_FORMULA_RE = re.compile(rf"\s*({IDENT_PATTERN}|\(|\)|,)")


def _old_document_tokens(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _OLD_DOCUMENT_RE.match(text, pos)
        if m is None:
            raise ParseError(f"bad token at {text[pos:pos + 12]!r}")
        if m.lastgroup != "ws":
            tokens.append(m.group(m.lastgroup))
        pos = m.end()
    return tokens


def _old_formula_tokens(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _OLD_FORMULA_RE.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"bad token at {rest[:10]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


_BLANKS = st.text(st.sampled_from(" \t\n\r\x0b\x0c\xa0\u2003"), min_size=1, max_size=3)
_COMMENT_BODY = st.text(st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)), max_size=8)
_COMMENT = _COMMENT_BODY.map(lambda body: "#" + body + "\n")
_GAP = st.lists(st.one_of(_BLANKS, _COMMENT), max_size=3).map("".join)
_FORMULA_TOKEN = st.one_of(
    st.from_regex(IDENT_PATTERN, fullmatch=True).filter(lambda t: len(t) <= 6),
    st.sampled_from(["(", ")", ","]),
)
_TOKEN = st.one_of(
    _FORMULA_TOKEN,
    st.sampled_from(["->", "|-", "{", "}", ";", ":", "/", "=", '"a # b"', '"#"', '""']),
    st.integers(0, 10**6).map(str),
    st.text(st.characters(blacklist_characters='"\n', blacklist_categories=("Cs",)), max_size=6).map(
        lambda body: f'"{body}"'
    ),
)
# fragments that start no token: a lone '-', '|' or '>', a quote left open
# or closed on the next line
_BAD = st.sampled_from(["-", "|", ">", '"ab', '"a\nb"', "%", "-x"])
_END = st.one_of(st.just(""), _BLANKS, _COMMENT_BODY.map(lambda body: "#" + body))


@st.composite
def _texts(draw, token=_TOKEN, gap=_GAP):
    """Random tokens, each after a random gap, then a random end: nothing
    (no final newline), trailing blanks or a comment without a newline."""
    parts = [draw(gap) + draw(token) for _ in range(draw(st.integers(0, 8)))]
    return "".join(parts) + draw(_END)


@given(
    st.one_of(
        _texts(),
        _texts(token=_FORMULA_TOKEN, gap=st.one_of(st.just(""), _BLANKS)),
        _texts(token=st.one_of(_TOKEN, _BAD)),
    )
)
def test_lexer_matches_the_old_tokenizers(text):
    try:
        want = _old_document_tokens(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            tokenize(text)
        assert str(got.value) == str(exc)
    else:
        assert tokenize(text) == want
    try:
        want = _old_formula_tokens(text)
    except ParseError:
        return  # formula text now also takes the document tokens and comments
    assert tokenize(text) == want


_ALPHABET = set(string.ascii_letters + string.digits + '_{}(),;:/=->|"#')


@given(st.characters(blacklist_categories=("Cs",)).filter(lambda c: c not in _ALPHABET and not c.isspace()))
def test_lexer_names_every_character_outside_the_alphabet(c):
    with pytest.raises(ParseError) as got:
        tokenize(f"imp(x1, {c}) # {c}")
    assert str(got.value) == f"bad token at {c + ') # ' + c!r}"
    with pytest.raises(ParseError, match="bad token at "):
        parse_formula(f"imp(x1, {c})", _SIG)


def test_membership_check():
    sig = make_signature(CPL_DECLS)
    phi = parse_formula("imp(x1, bot)", sig)
    assert formula_in_language(phi, sig)
    assert not formula_in_language(phi, make_signature([("imp", 2)]))


# -- substitution


def test_substitution_is_simultaneous():
    sig = make_signature(CPL_DECLS)
    phi = parse_formula("imp(x1, x2)", sig)
    swapped = substitute(phi, {1: svar(2), 2: svar(1)})
    assert swapped.text == "imp(x2, x1)"


def test_substitution_identity():
    sig = make_signature(CPL_DECLS)
    phi = parse_formula("imp(not(x1), bot)", sig)
    assert substitute(phi, {}) is phi


def test_substitution_replaces_all_occurrences():
    sig = make_signature(CPL_DECLS)
    phi = parse_formula("not(x1)", sig)
    image = substitute(phi, {1: parse_formula("imp(x1, x1)", sig)})
    assert image.text == "not(imp(x1, x1))"


def test_renaming_inverse_round_trip():
    sig = make_signature(CPL_DECLS)
    sigma = {1: svar(5), 2: svar(1), 3: svar(9)}
    inv = {5: svar(1), 1: svar(2), 9: svar(3)}
    phi = parse_formula("imp(imp(x1, x2), not(x3))", sig)
    assert substitute(substitute(phi, sigma), inv) is phi


# -- enumeration


def test_enumerate_unary_only():
    sig = make_signature([("not", 1)])
    got = [f.text for f in enumerate_formulas(sig, 2, 1)]
    assert got == ["x1", "not(x1)"]


def test_enumerate_depth_one_is_leaves():
    sig = make_signature(CPL_DECLS)
    got = [f.text for f in enumerate_formulas(sig, 1, 2)]
    assert got == ["x1", "x2", "bot"]


def test_enumerate_cpl_depth_two():
    sig = make_signature(CPL_DECLS)
    got = [f.text for f in enumerate_formulas(sig, 2, 1)]
    assert got == [
        "x1",
        "bot",
        "not(x1)",
        "not(bot)",
        "imp(x1, x1)",
        "imp(x1, bot)",
        "imp(bot, x1)",
        "imp(bot, bot)",
    ]


def _brute_force(sig: Signature, max_depth: int, max_var: int):
    """Independent enumeration oracle: plain depth recursion, then the
    canonical comparator re-derived from first principles."""
    leaves = [svar(i) for i in range(1, max_var + 1)]
    leaves += [apply_symbol(c) for c in sig.constants()]

    def of_depth(d):
        if d == 1:
            return list(leaves)
        prev = of_depth(d - 1)
        out = list(leaves)
        for sym in sig.symbols():
            if sym.arity == 0:
                continue
            for args in itertools.product(prev, repeat=sym.arity):
                out.append(apply_symbol(sym, args))
        return out

    def key(phi):
        def tokens(node):
            if node.var is not None:
                return [(0, node.var, "")]
            toks = [(1, node.head.arity, node.head.name)]
            for a in node.args:
                toks.extend(tokens(a))
            return toks

        return (phi.size, tokens(phi))

    uniq = sorted(set(of_depth(max_depth)), key=key)
    return uniq


def test_enumerate_matches_brute_force_oracle():
    sig = make_signature(CPL_DECLS)
    assert enumerate_formulas(sig, 3, 2) == _brute_force(sig, 3, 2)
    small = make_signature([("f", 1), ("g", 2)])
    assert enumerate_formulas(small, 3, 1) == _brute_force(small, 3, 1)


def test_enumerate_count_agrees():
    sig = make_signature(CPL_DECLS)
    assert len(enumerate_formulas(sig, 3, 2)) == count_formulas(sig, 3, 2)


def test_enumerate_sorted_and_duplicate_free():
    sig = make_signature(CPL_DECLS)
    out = enumerate_formulas(sig, 3, 2)
    keys = [f.sort_key for f in out]
    assert keys == sorted(keys)
    assert len(set(out)) == len(out)


def test_enumerate_cap():
    sig = make_signature(CPL_DECLS)
    with pytest.raises(CapExceeded):
        enumerate_formulas(sig, 6, 3)


def test_enumerate_rejects_bad_bounds():
    sig = make_signature(CPL_DECLS)
    with pytest.raises(ValueError):
        enumerate_formulas(sig, 0, 1)


# -- property tests

_SIG = make_signature(CPL_DECLS)
_CORPUS = enumerate_formulas(_SIG, 3, 2)


@given(st.sampled_from(_CORPUS))
def test_print_parse_round_trip(phi):
    assert parse_formula(phi.text, _SIG) is phi


@given(st.sampled_from(_CORPUS), st.permutations([1, 2, 3, 4]))
def test_injective_renaming_round_trips(phi, perm):
    sigma = {i + 1: svar(v) for i, v in enumerate(perm)}
    inverse = {v: svar(i + 1) for i, v in enumerate(perm)}
    assert substitute(substitute(phi, sigma), inverse) is phi


@given(st.sampled_from(_CORPUS), st.sampled_from(_CORPUS))
def test_substitution_preserves_membership(phi, psi):
    image = substitute(phi, {1: psi})
    assert formula_in_language(image, _SIG)


# -- the canonical sort key

# names that are prefixes of one another (the terminator orders them), and
# variable indices of one, two, 255 and 256 bytes (the length prefix orders
# them, and writes counts of 255 and more as 0xff and the rest)
_KEY_SIG = make_signature(
    [("a", 0), ("aa", 0), ("b", 0), ("n", 1), ("m", 1), ("nn", 1), ("f", 2), ("fa", 2), ("ff", 2), ("g", 3)]
)
_KEY_VARS = [1, 2, 3, 10, 11, 255, 256, 257, 65536, 2**2032 - 1, 2**2032, 2**2040]

_KEY_FORMULAS = st.recursive(
    st.one_of(
        st.sampled_from(_KEY_VARS).map(svar),
        st.sampled_from(_KEY_SIG.constants()).map(apply_symbol),
    ),
    lambda inner: st.one_of(
        *(
            st.tuples(*[inner] * sym.arity).map(lambda args, sym=sym: apply_symbol(sym, args))
            for arity in (1, 2, 3)
            for sym in _KEY_SIG.level(arity)
        )
    ),
    max_leaves=6,
)


def _nested_token_key(phi):
    """The earlier form of the key: (size, tuple of preorder token triples)."""
    tokens = []
    stack = [phi]
    while stack:
        node = stack.pop()
        if node.var is not None:
            tokens.append((0, node.var, ""))
        else:
            tokens.append((1, node.head.arity, node.head.name))
            stack.extend(reversed(node.args))
    return (phi.size, tuple(tokens))


def _count_and_bytes(n):
    body = n.to_bytes((n.bit_length() + 7) // 8, "big")
    count = bytes([len(body)]) if len(body) < 255 else b"\xff" + bytes([len(body) - 255])
    return count + body


def _token_bytes(token):
    kind, number, name = token
    tail = name.encode() + b"\x00" if kind else b""
    return bytes([kind]) + _count_and_bytes(number) + tail


def test_token_bytes_spell_the_documented_layout():
    assert svar(1).sort_key == (1, b"\x00\x01\x01")
    assert svar(256).sort_key == (1, b"\x00\x02\x01\x00")
    assert svar(2**2040).sort_key == (1, b"\x00\xff\x01\x01" + bytes(255))
    assert apply_symbol(Symbol("a", 0)).sort_key == (1, b"\x01\x00a\x00")
    phi = apply_symbol(Symbol("ff", 2), (svar(2), apply_symbol(Symbol("a", 0))))
    assert phi.sort_key == (3, b"\x01\x01\x02ff\x00" + b"\x00\x01\x02" + b"\x01\x00a\x00")


@given(st.lists(_KEY_FORMULAS, min_size=2, max_size=12), st.lists(st.booleans(), min_size=12))
def test_flat_sort_key_orders_as_nested_tokens(formulas, warm):
    # keys cached on some subtrees first, so that both ways of building a
    # key (fresh tokens and copied cached bytes) are exercised
    for phi, w in zip(formulas, warm):
        if w:
            for sub in list(phi.subformulas())[1::2]:
                sub.sort_key
    for phi in formulas:
        size, tokens = _nested_token_key(phi)
        assert phi.sort_key == (size, b"".join(map(_token_bytes, tokens)))
    assert sorted(formulas, key=lambda p: p.sort_key) == sorted(formulas, key=_nested_token_key)
    for phi in formulas:
        for psi in formulas:
            assert (phi.sort_key < psi.sort_key) == (_nested_token_key(phi) < _nested_token_key(psi))


def test_sort_key_of_a_deep_chain_needs_no_recursion():
    n = Symbol("n", 1)
    phi = svar(1)
    for _ in range(5000):
        phi = apply_symbol(n, (phi,))
    size, flat = phi.sort_key
    assert size == 5001
    assert flat == b"\x01\x01\x01n\x00" * 5000 + b"\x00\x01\x01"


def _reference_frontier(phi, bound):
    """The maximal subtrees of at most bound nodes, by recursion."""
    if phi.size <= bound:
        return {phi}
    return set().union(*(_reference_frontier(a, bound) for a in phi.args))


@given(st.lists(_KEY_FORMULAS, min_size=1, max_size=8), st.lists(st.sampled_from([1, 2, 3, 5]), min_size=8))
def test_frontier_is_the_maximal_small_subtrees(formulas, bounds):
    # bounds change from call to call, and subtrees come before the
    # formulas that hold them, so cached frontiers of children are reused
    # and cached ones at another bound are replaced
    for phi, bound in zip(formulas, bounds):
        for sub in sorted(set(phi.subformulas()), key=lambda g: g.sort_key):
            front = sub.frontier(bound)
            assert len(front) == len(set(front))
            assert set(front) == _reference_frontier(sub, bound)
            assert sub.frontier(bound) is front or sub.size <= bound
