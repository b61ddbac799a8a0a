"""Block parsing and canonical emission."""

from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from ontoweave.consequence import ASSERTED, Evidence, Fuel
from ontoweave.dsl import (
    Link,
    emit_calculus,
    emit_link,
    emit_map,
    emit_ontology,
    emit_signature,
    parse_document,
    read_document,
)
from ontoweave.errors import ParseError
from ontoweave.syntax import (
    MAX_NESTING,
    Symbol,
    apply_symbol,
    make_signature,
    parse_formula,
    within_nesting,
)

FIXTURE = """
# a workbench document
signature CPL { bot/0; not/1; imp/2; }
calculus cpl over CPL {
  axiom A1: imp(x1, imp(x2, x1));
  rule MP: x1, imp(x1, x2) |- x2;
  negation not;
}
signature CONJ { and/2; }
calculus conj over CONJ {
  rule AndE1: and(x1, x2) |- x1;
  rule AndE2: and(x1, x2) |- x2;
  rule AndI: x1, x2 |- and(x1, x2);
}
ontology efq {
  base cpl;
  onto_signature { bot/0; }
  axioms { imp(bot, x1); }
}
morphism h0 : CONJ -> CPL { and/2 -> imp/2; }
splitting f0 : CONJ -> CPL { and/2 -> not(imp(x1, not(x2))); }
link theorem efq -> efq assert
"""


def test_parse_document_structure():
    doc = parse_document(FIXTURE)
    assert set(doc.signatures) == {"CPL", "CONJ"}
    assert set(doc.calculi) == {"cpl", "conj"}
    assert set(doc.ontologies) == {"efq"}
    assert set(doc.morphisms) == {"h0"}
    assert set(doc.splittings) == {"f0"}
    assert len(doc.links) == 1


def test_parsed_calculus_content():
    doc = parse_document(FIXTURE)
    cal = doc.calculi["cpl"]
    assert [r.name for r in cal.axioms] == ["A1"]
    assert [r.name for r in cal.rules] == ["MP"]
    assert cal.negation == Symbol("not", 1)
    assert cal.rules[0].premises[0].text == "x1"
    assert cal.rules[0].conclusion.text == "x2"


def test_parsed_ontology_content():
    doc = parse_document(FIXTURE)
    onto = doc.ontologies["efq"]
    assert onto.name == "efq"
    assert [a.text for a in onto.axioms] == ["imp(bot, x1)"]
    assert onto.onto_sig.level(0) == (Symbol("bot", 0),)


def test_parsed_link_record():
    doc = parse_document(FIXTURE)
    ((link, evidence),) = doc.links.items()
    assert link == Link("theorem", "efq", "efq")
    assert evidence is ASSERTED


def test_documents_are_read_only():
    doc = parse_document(FIXTURE)
    for table in (doc.signatures, doc.calculi, doc.morphisms, doc.splittings, doc.ontologies):
        with pytest.raises(TypeError):
            table["fresh"] = None
    (link,) = doc.links
    with pytest.raises(TypeError):
        doc.links[link] = None
    with pytest.raises(FrozenInstanceError):
        link.src = "other"
    with pytest.raises(FrozenInstanceError):
        doc.links = ()
    assert parse_document(FIXTURE) == doc


def test_each_text_is_parsed_once():
    doc = parse_document(FIXTURE)
    # the key is the content, not the string object
    assert parse_document("".join(FIXTURE)) is doc
    assert parse_document(FIXTURE + " ") is not doc
    # a failing text is not remembered: it raises the same error every time
    bad = FIXTURE + "link theorem efq ->"
    for _ in range(2):
        with pytest.raises(ParseError, match="unexpected end of input"):
            parse_document(bad)


@pytest.mark.parametrize(
    "clauses, clause",
    [
        ("assert evidence verified depth=2 rounds=1 size=2 set=3", "evidence"),
        ("evidence verified depth=2 rounds=1 size=2 set=3 assert", "evidence"),
        ("assert assert", "evidence"),
        ("morphism h0 assert morphism h0", "morphism"),
    ],
)
def test_a_link_statement_states_each_clause_once(clauses, clause):
    # without the check, the last evidence clause would silently win
    with pytest.raises(ParseError, match=f"^link definition efq -> efq has more than one {clause} clause$"):
        read_document(FIXTURE + f"\nlink definition efq -> efq {clauses}\n")


def test_parse_verified_link_with_detail():
    text = (
        FIXTURE
        + '\nlink definition efq -> efq morphism h0 '
        + 'evidence verified depth=2 rounds=3 size=16 set=512 detail "checked=9"\n'
    )
    doc = parse_document(text)
    link = Link("definition", "efq", "efq", doc.morphisms["h0"])
    assert list(doc.links) == [Link("theorem", "efq", "efq"), link]
    assert doc.links[link] == Evidence("verified", 2, Fuel(3, 16, 512), "checked=9")


@pytest.mark.parametrize(
    "bad",
    [
        "signature S { a/; }",
        "signature S { a/0 } calculus",
        "calculus c over nowhere { }",
        "ontology o { base nowhere; onto_signature { } axioms { } }",
        "link sideways A -> B",
        "signature S { a/0; } signature S { b/0; }",
        "calculus c over S { axiom A: a; axiom A: a; }",
        "morphism h : S -> T { }",
        "splitting f : S -> S { a/0 -> a; } splitting f : S -> S { a/0 -> a; }",
        "splitting f : S -> T { }",
        "signature T { b/0; } morphism h : S -> T { }",
        "calculus c over S { } ontology o { base c; onto_signature { b/0; } axioms { } }",
        "link theorem A -> B evidence verified depth=2 rounds=0 size=16 set=512",
        # link statements: no evidence, repeated, an unknown map, a map of
        # the wrong kind
        "link theorem A -> B",
        "link theorem A -> B assert link theorem A -> B assert",
        "link definition A -> B morphism h assert",
        "morphism h : S -> S { a/0 -> a/0; } link splitting A -> B morphism h assert",
    ],
)
def test_parse_errors(bad):
    prefix = "signature S { a/0; }\n" if "signature S" not in bad else ""
    with pytest.raises(ParseError):
        parse_document(prefix + bad)


@pytest.mark.parametrize(
    "kind, block",
    [
        ("signature", "signature D { b/0; }"),
        ("calculus", "calculus D over S { }"),
        ("ontology", "ontology D { base c; onto_signature { } axioms { } }"),
        ("morphism", "morphism D : S -> S { a/0 -> a/0; }"),
        ("splitting", "splitting D : S -> S { a/0 -> a; }"),
    ],
)
def test_every_block_refuses_a_duplicate_name(kind, block):
    text = "signature S { a/0; } calculus c over S { }\n" + block
    parse_document(text)
    with pytest.raises(ParseError, match=f"^duplicate {kind} 'D'$"):
        parse_document(text + "\n" + block)


def test_both_parsers_share_the_nesting_cap():
    sig = make_signature([("not", 1)])

    def nested(depth):
        return "not(" * (depth - 1) + "x1" + ")" * (depth - 1)

    def axiom_doc(depth):
        return f"signature S {{ not/1; }} calculus c over S {{ axiom A: {nested(depth)}; }}"

    assert parse_formula(nested(MAX_NESTING), sig).size == MAX_NESTING
    axiom = parse_document(axiom_doc(MAX_NESTING)).calculi["c"].axioms[0]
    assert axiom.conclusion.size == MAX_NESTING
    with pytest.raises(ParseError, match="nested deeper"):
        parse_formula(nested(MAX_NESTING + 1), sig)
    with pytest.raises(ParseError, match="nested deeper"):
        parse_document(axiom_doc(MAX_NESTING + 1))
    # within_nesting draws the same line for formulas built in code
    assert within_nesting(axiom.conclusion)
    assert not within_nesting(apply_symbol(Symbol("not", 1), [axiom.conclusion]))


def test_negation_must_resolve():
    text = "signature S { imp/2; }\ncalculus c over S { negation imp; }"
    with pytest.raises(ParseError):
        parse_document(text)


def test_emitters_round_trip():
    doc = parse_document(FIXTURE)
    sig_text = emit_signature("CPL", doc.signatures["CPL"])
    assert sig_text == "signature CPL { bot/0; not/1; imp/2; }"
    doc2 = parse_document(sig_text)
    assert doc2.signatures["CPL"] == doc.signatures["CPL"]

    cal_text = emit_calculus("cpl", doc.calculi["cpl"], "CPL")
    doc3 = parse_document(sig_text + "\n" + cal_text)
    assert doc3.calculi["cpl"] == doc.calculi["cpl"]

    onto_text = emit_ontology("efq", doc.ontologies["efq"], "cpl")
    doc4 = parse_document(sig_text + "\n" + cal_text + "\n" + onto_text)
    assert doc4.ontologies["efq"] == doc.ontologies["efq"]

    conj_text = emit_signature("CONJ", doc.signatures["CONJ"])
    morphism_text = emit_map("h0", doc.morphisms["h0"], "CONJ", "CPL")
    assert morphism_text == "morphism h0 : CONJ -> CPL {\n  and/2 -> imp/2;\n}"
    splitting_text = emit_map("f0", doc.splittings["f0"], "CONJ", "CPL")
    assert splitting_text == (
        "splitting f0 : CONJ -> CPL {\n  and/2 -> not(imp(x1, not(x2)));\n}"
    )
    doc5 = parse_document("\n".join([sig_text, conj_text, morphism_text, splitting_text]))
    assert doc5.morphisms["h0"] == doc.morphisms["h0"]
    assert doc5.splittings["f0"] == doc.splittings["f0"]


def test_emit_link_formats():
    assert emit_link(Link("theorem", "A", "B"), ASSERTED, None) == "link theorem A -> B assert"
    h0 = parse_document(FIXTURE).morphisms["h0"]
    evidence = Evidence("verified", 2, Fuel(3, 16, 512), "checked=4")
    assert emit_link(Link("definition", "A", "B", h0), evidence, "h0") == (
        "link definition A -> B morphism h0 "
        'evidence verified depth=2 rounds=3 size=16 set=512 detail "checked=4"'
    )


def test_comments_and_whitespace_ignored():
    noisy = "# top\nsignature   S\n{ a/0;\n# inner\n b/1; }\n"
    doc = parse_document(noisy)
    assert set(s.name for s in doc.signatures["S"].symbols()) == {"a", "b"}


def test_readme_dsl_block_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## The DSL\n", 1)[1].split("```", 2)[1]
    doc = parse_document(block)
    assert (list(doc.signatures), list(doc.calculi), list(doc.ontologies)) == (
        ["CPL"], ["cpl"], ["efq"]
    )
    assert len(doc.calculi["cpl"].axioms) == 4
