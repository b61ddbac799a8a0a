"""Signature morphisms, splittings, interning, and fibring translations."""

import pytest
from hypothesis import given, strategies as st

from ontoweave import presets
from ontoweave.consequence import Fuel
from ontoweave.errors import (
    CompositionError,
    LanguageError,
    SignatureError,
    UnknownInternIndex,
    UnknownSymbol,
)
from ontoweave.morphisms import (
    Interning,
    SignatureMorphism,
    SplittingMorphism,
    Translation,
    apply_signature_morphism,
    apply_splitting,
    compose_signature_morphisms,
    compose_splitting,
    is_back_translatable,
    is_monomorphic,
    substitute_back,
    translate,
)
from ontoweave.fibring import dump_session, load_session, open_session
from ontoweave.syntax import (
    Symbol,
    apply_symbol,
    enumerate_formulas,
    formula_in_language,
    make_signature,
    parse_formula,
    svar,
)

CPL = make_signature([("bot", 0), ("not", 1), ("imp", 2)])
MIXED = make_signature([("not", 1), ("imp", 2), ("box", 1)])
SMALL = make_signature([("not", 1), ("imp", 2)])


def f(text, sig=CPL):
    return parse_formula(text, sig)


# -- signature morphisms


def test_identity_morphism_fixes_formulas():
    h = SignatureMorphism.identity(CPL)
    phi = f("imp(not(x1), bot)")
    assert apply_signature_morphism(h, phi) is phi


def test_single_relabel():
    src = make_signature([("and", 2)])
    dst = make_signature([("or", 2)])
    h = SignatureMorphism(src, dst, {Symbol("and", 2): Symbol("or", 2)})
    phi = parse_formula("and(x1, x2)", src)
    assert apply_signature_morphism(h, phi).text == "or(x1, x2)"


def test_maps_repr_their_images_by_symbol():
    src = make_signature([("and", 2), ("top", 0)])
    dst = make_signature([("or", 2), ("top", 0)])
    and2, top = Symbol("and", 2), Symbol("top", 0)
    h = SignatureMorphism(src, dst, {and2: Symbol("or", 2), top: top})
    assert repr(h) == "SignatureMorphism(and/2->or/2, top/0->top/0)"
    f = SplittingMorphism(
        src, dst, {and2: parse_formula("or(x2, x1)", dst), top: parse_formula("top", dst)}
    )
    assert repr(f) == "SplittingMorphism(and/2->or(x2, x1), top/0->top)"


def test_homomorphic_recursion():
    src = make_signature([("not", 1)])
    dst = make_signature([("neg", 1)])
    h = SignatureMorphism(src, dst, {Symbol("not", 1): Symbol("neg", 1)})
    phi = parse_formula("not(not(x1))", src)
    assert apply_signature_morphism(h, phi).text == "neg(neg(x1))"


def test_morphism_must_be_total_and_arity_preserving():
    src = make_signature([("and", 2), ("or", 2)])
    dst = make_signature([("or", 2)])
    with pytest.raises(SignatureError):
        SignatureMorphism(src, dst, {Symbol("and", 2): Symbol("or", 2)})
    with pytest.raises(SignatureError):
        SignatureMorphism(
            make_signature([("f", 1)]), dst, {Symbol("f", 1): Symbol("or", 2)}
        )
    # an image outside the target, a mapped symbol outside the source
    c, z = Symbol("c", 0), Symbol("z", 0)
    consts = make_signature([("c", 0)])
    with pytest.raises(SignatureError, match="^image c/0 missing from target signature$"):
        SignatureMorphism(consts, dst, {c: c})
    with pytest.raises(SignatureError, match="^mapped symbol z/0 not in source signature$"):
        SignatureMorphism(consts, consts, {c: c, z: c})


def test_apply_outside_source():
    src = make_signature([("and", 2)])
    h = SignatureMorphism(src, src, {Symbol("and", 2): Symbol("and", 2)})
    with pytest.raises(UnknownSymbol, match="^not/1 is outside the morphism source$"):
        apply_signature_morphism(h, f("not(x1)"))
    with pytest.raises(UnknownSymbol, match="^g/1 is outside the splitting source$"):
        apply_splitting(nand_splitting(), f("g(x1)", make_signature([("g", 1)])))


def test_is_monomorphic():
    assert is_monomorphic(SignatureMorphism.identity(CPL))
    src = make_signature([("and", 2), ("nand", 2)])
    dst = make_signature([("or", 2)])
    collapsing = SignatureMorphism(
        src, dst, {Symbol("and", 2): Symbol("or", 2), Symbol("nand", 2): Symbol("or", 2)}
    )
    assert not is_monomorphic(collapsing)
    a = make_signature([("a", 1), ("b", 1)])
    pq = make_signature([("p", 1), ("q", 1)])
    injective = SignatureMorphism(
        a, pq, {Symbol("a", 1): Symbol("p", 1), Symbol("b", 1): Symbol("q", 1)}
    )
    assert is_monomorphic(injective)


def test_injective_morphism_injective_on_fragment():
    a = make_signature([("a", 1), ("b", 1)])
    pq = make_signature([("p", 1), ("q", 1)])
    h = SignatureMorphism(a, pq, {Symbol("a", 1): Symbol("p", 1), Symbol("b", 1): Symbol("q", 1)})
    fragment = enumerate_formulas(a, 3, 2)
    images = [apply_signature_morphism(h, phi) for phi in fragment]
    assert len(set(images)) == len(fragment)


def test_compose_signature_morphisms():
    a = make_signature([("a", 1)])
    b = make_signature([("b", 1)])
    c = make_signature([("c", 1)])
    h1 = SignatureMorphism(a, b, {Symbol("a", 1): Symbol("b", 1)})
    h2 = SignatureMorphism(b, c, {Symbol("b", 1): Symbol("c", 1)})
    comp = compose_signature_morphisms(h2, h1)
    assert comp.maps[Symbol("a", 1)] == Symbol("c", 1)
    with pytest.raises(CompositionError):
        compose_signature_morphisms(h1, h2)


# -- splitting morphisms


def nand_splitting():
    src = make_signature([("nand", 2)])
    dst = make_signature([("not", 1), ("and", 2)])
    return SplittingMorphism(
        src, dst, {Symbol("nand", 2): parse_formula("not(and(x1, x2))", dst)}
    )


def test_identity_splitting_is_neutral():
    ident = SplittingMorphism.identity(CPL)
    phi = f("imp(not(x1), imp(bot, x2))")
    assert apply_splitting(ident, phi) is phi
    g = nand_splitting()
    assert compose_splitting(SplittingMorphism.identity(g.target), g) == g
    assert compose_splitting(g, SplittingMorphism.identity(g.source)) == g


def test_splitting_single_unfold():
    g = nand_splitting()
    phi = parse_formula("nand(x1, x2)", g.source)
    assert apply_splitting(g, phi).text == "not(and(x1, x2))"


def test_splitting_recursive_unfold():
    g = nand_splitting()
    phi = parse_formula("nand(nand(x1, x1), x2)", g.source)
    assert apply_splitting(g, phi).text == "not(and(not(and(x1, x1)), x2))"


def test_splitting_requires_exact_variable_set():
    src = make_signature([("nand", 2)])
    dst = make_signature([("not", 1), ("and", 2)])
    with pytest.raises(SignatureError):
        SplittingMorphism(src, dst, {Symbol("nand", 2): parse_formula("not(x1)", dst)})


def test_splitting_must_be_total_and_inside_its_target():
    src = make_signature([("f", 1)])
    dst = make_signature([("not", 1), ("and", 2)])
    body = parse_formula("not(x1)", dst)
    foreign = parse_formula("h(x1)", make_signature([("h", 1)]))
    for assign, message in (
        ({}, "splitting is not total: f/1 unmapped"),
        ({Symbol("f", 1): foreign}, "image of f/1 uses foreign symbol h/1"),
        ({Symbol("f", 1): body, Symbol("z", 0): body}, "mapped symbol z/0 not in source signature"),
    ):
        with pytest.raises(SignatureError, match=f"^{message}$"):
            SplittingMorphism(src, dst, assign)


def test_splitting_variable_set_contained():
    g = nand_splitting()
    for phi in enumerate_formulas(g.source, 3, 2):
        image = apply_splitting(g, phi)
        assert image.variables <= {1, 2}
        assert formula_in_language(image, g.target)


def test_compose_splitting_example():
    # nand -> not(and(x1,x2)), then not -> neg(x1) and and -> meet(x1,x2)
    mid = make_signature([("not", 1), ("and", 2)])
    dst = make_signature([("neg", 1), ("meet", 2)])
    g = SplittingMorphism(
        mid,
        dst,
        {
            Symbol("not", 1): parse_formula("neg(x1)", dst),
            Symbol("and", 2): parse_formula("meet(x1, x2)", dst),
        },
    )
    composite = compose_splitting(g, nand_splitting())
    assert composite.assign[Symbol("nand", 2)].text == "neg(meet(x1, x2))"
    probe = parse_formula("nand(x1, nand(x2, x1))", composite.source)
    assert apply_splitting(composite, probe) == apply_splitting(
        g, apply_splitting(nand_splitting(), probe)
    )


def test_compose_splitting_associative():
    s1 = make_signature([("a", 2)])
    s2 = make_signature([("b", 2), ("u", 1)])
    s3 = make_signature([("c", 2), ("v", 1)])
    s4 = make_signature([("d", 2), ("w", 1)])
    f1 = SplittingMorphism(s1, s2, {Symbol("a", 2): parse_formula("u(b(x1, x2))", s2)})
    f2 = SplittingMorphism(
        s2,
        s3,
        {
            Symbol("b", 2): parse_formula("c(x2, x1)", s3),
            Symbol("u", 1): parse_formula("v(v(x1))", s3),
        },
    )
    f3 = SplittingMorphism(
        s3,
        s4,
        {
            Symbol("c", 2): parse_formula("d(x1, w(x2))", s4),
            Symbol("v", 1): parse_formula("w(x1)", s4),
        },
    )
    left = compose_splitting(f3, compose_splitting(f2, f1))
    right = compose_splitting(compose_splitting(f3, f2), f1)
    assert left == right


def test_compose_splitting_endpoint_mismatch():
    g = nand_splitting()
    with pytest.raises(CompositionError):
        compose_splitting(g, g)


# -- interning


def test_interning_assigns_successive_indices():
    table = Interning()
    a = f("imp(x1, x1)")
    b = f("bot")
    assert table.register(a) == 1
    assert table.register(b) == 2
    assert table.register(a) == 1
    assert table.entries == (a, b)
    assert table.formula_of(2) is b


def test_interning_unknown_index():
    table = Interning()
    with pytest.raises(UnknownInternIndex):
        table.formula_of(1)


def test_interning_freeze():
    table = Interning()
    table.register(f("bot"))
    table.freeze()
    assert table.register(f("bot")) == 1  # reads stay fine
    with pytest.raises(UnknownInternIndex):
        table.register(f("not(bot)"))


def test_interning_extend_registers_as_register_does():
    new = (f("not(x2)"), f("imp(x1, bot)"), f("x3"))
    one_by_one, at_once = Interning(), Interning()
    for table in (one_by_one, at_once):
        table.register(f("bot"))
    for phi in new:
        one_by_one.register(phi)
    at_once.extend(new)
    assert at_once.entries == one_by_one.entries
    assert at_once.entries[1:] == new
    at_once.extend(())
    assert at_once.entries == one_by_one.entries
    # frozen, it raises what register raises at the first new formula
    for table in (one_by_one, at_once):
        table.freeze()
    at_once.extend(())
    later = (f("not(bot)"), f("not(not(bot))"))
    with pytest.raises(UnknownInternIndex) as cold:
        one_by_one.register(later[0])
    with pytest.raises(UnknownInternIndex) as warm:
        at_once.extend(later)
    assert str(warm.value) == str(cold.value)
    assert len(at_once) == 4


def test_interning_serialization_round_trip():
    # the table is serialized as the entry lines of a session dump
    session = open_session(presets.cpl(), presets.rule_free(), Fuel(1, 8, 100))
    table = session.interning
    table.register(f("imp(x1, bot)"))
    table.register(f("not(x2)"))
    text = dump_session(session)
    assert text.endswith("\nintern\n1\timp(x1, bot)\n2\tnot(x2)\n")
    reloaded = load_session(text, presets.cpl(), presets.rule_free())
    assert reloaded.interning.entries == table.entries
    assert dump_session(reloaded) == text


# -- translations


def make_translation():
    return Translation(SMALL, MIXED)


def test_translation_requires_inclusion():
    with pytest.raises(SignatureError):
        Translation(MIXED, SMALL)


def test_translate_pure_formula_renames_variables():
    t = Translation(SMALL, SMALL)
    phi = parse_formula("imp(x1, x2)", SMALL)
    assert translate(t, phi).text == "imp(x3, x5)"


def test_translate_foreign_head_collapses_to_even_variable():
    t = make_translation()
    box1 = parse_formula("box(x1)", MIXED)
    out = translate(t, box1)
    assert out is svar(2)  # first registration takes index 1, even index 2
    assert t.interning.entries == (box1,)


def test_translate_mixed_formula():
    t = make_translation()
    phi = parse_formula("imp(box(x1), x1)", MIXED)
    assert translate(t, phi).text == "imp(x2, x3)"


def test_translate_shared_constant_fixed():
    small = make_signature([("bot", 0), ("imp", 2)])
    big = make_signature([("bot", 0), ("imp", 2), ("top", 0)])
    t = Translation(small, big)
    assert translate(t, parse_formula("bot", big)).text == "bot"
    out = translate(t, parse_formula("imp(bot, top)", big))
    assert out.text == "imp(bot, x2)"


def test_substitute_back_clauses():
    t = make_translation()
    box1 = parse_formula("box(x1)", MIXED)
    translate(t, box1)  # registers at index 1
    assert substitute_back(t, svar(3)) is svar(1)
    assert substitute_back(t, svar(2)) is box1
    two = parse_formula("imp(x2, x3)", SMALL)
    assert substitute_back(t, two).text == "imp(box(x1), x1)"


def test_substitute_back_unregistered_even_index():
    t = make_translation()
    with pytest.raises(UnknownInternIndex):
        substitute_back(t, svar(4))


def test_substitute_back_x1_has_no_preimage():
    t = make_translation()
    assert not is_back_translatable(t, svar(1))
    with pytest.raises(UnknownInternIndex):
        substitute_back(t, svar(1))


def test_translate_rejects_a_formula_outside_the_combined_language():
    t = make_translation()
    with pytest.raises(LanguageError, match=r"^g\(b\) is not in the combined language$"):
        translate(t, parse_formula("g(b)", make_signature([("g", 1), ("b", 0)])))


def test_substitute_back_rejects_foreign_symbols():
    t = make_translation()
    with pytest.raises(LanguageError):
        substitute_back(t, parse_formula("box(x3)", MIXED))


_BIG_CORPUS = enumerate_formulas(MIXED, 4, 2)


def test_round_trip_depth_four():
    t = make_translation()
    for phi in _BIG_CORPUS:
        out = translate(t, phi)
        assert formula_in_language(out, SMALL), phi.text
        assert substitute_back(t, out) is phi


def test_translate_then_back_is_stable_in_image():
    t = make_translation()
    for phi in _BIG_CORPUS[:200]:
        out = translate(t, phi)
        assert translate(t, substitute_back(t, out)) is out


@given(st.sampled_from(_BIG_CORPUS))
def test_parity_discipline(phi):
    t = Translation(SMALL, MIXED)
    out = translate(t, phi)
    has_even = any(v % 2 == 0 for v in out.variables)
    has_foreign = any(
        node.var is None and node.head not in SMALL for node in phi.subformulas()
    )
    assert has_even == has_foreign


def test_registration_order_is_traversal_order():
    t = make_translation()
    phi = parse_formula("imp(box(x2), box(box(x1)))", MIXED)
    translate(t, phi)
    assert t.interning.formula_of(1).text == "box(x2)"
    assert t.interning.formula_of(2).text == "box(box(x1))"


# -- back-translation against its definition


def test_translation_is_read_only():
    t = make_translation()
    with pytest.raises(AttributeError):
        t.interning = Interning()
    with pytest.raises(AttributeError):
        t.small = MIXED


def test_a_false_answer_turns_true_once_its_index_is_registered():
    t = make_translation()
    two = parse_formula("imp(x2, x3)", SMALL)
    for _ in range(2):
        assert not is_back_translatable(t, two)
        with pytest.raises(UnknownInternIndex):
            substitute_back(t, two)
    translate(t, parse_formula("box(x1)", MIXED))  # registers index 1
    assert is_back_translatable(t, two)
    assert substitute_back(t, two).text == "imp(box(x1), x1)"
    assert substitute_back(t, two) is substitute_back(t, two)


NOT, IMP, BOX = Symbol("not", 1), Symbol("imp", 2), Symbol("box", 1)


def formulas_over(*heads):
    """Formulas over the given symbols and x1..x8: x1 has no preimage, and
    an even xi names interning slot i/2, registered or not."""

    def extend(children):
        return st.one_of(
            [
                st.tuples(*[children] * sym.arity).map(lambda args, sym=sym: apply_symbol(sym, args))
                for sym in heads
            ]
        )

    return st.recursive(st.integers(1, 8).map(svar), extend, max_leaves=6)


def reference_back(t, phi):
    """substitute_back read off its definition."""
    if phi.var is not None:
        if phi.var % 2 == 1:
            if phi.var < 3:
                raise UnknownInternIndex(f"x{phi.var} has no preimage")
            return svar(phi.var // 2)
        return t.interning.formula_of(phi.var // 2)
    if phi.head not in t.small:
        raise LanguageError(f"{phi.text} is not in the component language")
    return apply_symbol(phi.head, tuple(reference_back(t, a) for a in phi.args))


def reference_translatable(t, phi):
    return all(t.interning.has_index(v // 2) if v % 2 == 0 else v >= 3 for v in phi.variables)


def reference_outcome(t, phi):
    try:
        return reference_back(t, phi)
    except (UnknownInternIndex, LanguageError) as exc:
        return type(exc)


def back_outcome(t, phi):
    try:
        return substitute_back(t, phi)
    except (UnknownInternIndex, LanguageError) as exc:
        return type(exc)


_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("register"), formulas_over(BOX, IMP)),
        st.tuples(st.just("ask"), st.one_of(formulas_over(NOT, IMP), formulas_over(NOT, IMP, BOX))),
    ),
    max_size=14,
)


@given(_STEPS)
def test_back_translation_matches_the_reference(steps):
    # between questions, new foreign subtrees are registered, so a False or
    # an unregistered index may turn good; every earlier question is asked
    # again after each step, and a failure must raise again every time
    t = make_translation()
    asked = []
    for kind, phi in steps:
        if kind == "register":
            translate(t, phi)
        else:
            asked.append(phi)
        for psi in asked:
            for _ in range(2):
                assert is_back_translatable(t, psi) == reference_translatable(t, psi), psi.text
                assert back_outcome(t, psi) == reference_outcome(t, psi), psi.text
