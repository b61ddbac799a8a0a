"""Command-line behavior: exit codes, reports, and workspace round trips."""

import hashlib
import os
import shlex
from pathlib import Path

import pytest

from ontoweave import cli, presets
from ontoweave.cli import build_parser, main
from ontoweave.consequence import Fuel
from ontoweave.errors import FormatError
from ontoweave.fibring import dump_session, h_closure, load_session, open_session
from ontoweave.syntax import make_signature, parse_formula, tokenize

DEFS = """
signature CPL { bot/0; not/1; imp/2; }
calculus cpl over CPL {
  axiom A1: imp(x1, imp(x2, x1));
  axiom A2: imp(imp(x1, imp(x2, x3)), imp(imp(x1, x2), imp(x1, x3)));
  axiom A3: imp(imp(not(x1), not(x2)), imp(x2, x1));
  axiom DS: imp(not(x1), imp(x1, x2));
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
ontology conj_onto {
  base conj;
  onto_signature { and/2; }
  axioms { }
}
"""

FAST = ["--fuel-rounds", "2", "--fuel-size", "14", "--fuel-set", "20000"]


@pytest.fixture()
def defs_file(tmp_path):
    path = tmp_path / "defs.dsl"
    path.write_text(DEFS, encoding="utf-8")
    return path


def test_check_passes(defs_file, capsys):
    code = main(["check", str(defs_file), "--samples", "8", *FAST])
    out = capsys.readouterr().out
    assert code == 0
    assert "calculus cpl\textensivity\tpass" in out
    assert "ontology efq\taxioms-derivable\tpass" in out


SMALL_CAP_DEFS = """
signature CPL { bot/0; not/1; imp/2; }
calculus cpl over CPL { axiom A1: imp(x1, imp(x2, x1)); }
signature CONJ { and/2; }
calculus conj over CONJ {
  rule AndE1: and(x1, x2) |- x1;
  rule AndI: x1, x2 |- and(x1, x2);
}
ontology conj_onto { base conj; onto_signature { and/2; } axioms { } }
"""


def test_law_probes_run_below_a_set_cap_of_four(tmp_path, capsys):
    # the probes draw up to three premises, and cut up to four: those over
    # the cap are skipped, not refused
    defs = tmp_path / "defs.dsl"
    defs.write_text(SMALL_CAP_DEFS, encoding="utf-8")
    assert main(["check", str(defs), "--fuel-set", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 9 and all(line.split("\t")[3] == "pass" for line in out)
    assert f"{defs}\tcalculus conj\tcut\tpass\tinstances=0" in out
    manifest = tmp_path / "graph.dsl"
    argv = ["graph", "--manifest", str(manifest), "--fuel-set", "3"]
    assert main([*argv, "add-node", "--defs", str(defs), "--name", "conj_onto"]) == 0
    assert capsys.readouterr().out == "added node conj_onto\n"


ORI_DEFS = """
signature S { a/0; or/2; }
calculus ori over S { rule OrI: x1 |- or(x1, x2); }
ontology ori_onto { base ori; onto_signature { } axioms { a; } }
"""


def test_a_conclusion_only_variable_passes_the_law_probes(tmp_path, capsys):
    # OrI fills x2 from the pool, so a premise from an earlier round must
    # meet the pool values that arrive later for closure to be iterated F
    defs = tmp_path / "ori.dsl"
    defs.write_text(ORI_DEFS, encoding="utf-8")
    assert main(["check", str(defs)]) == 0
    out = [line.split("\t")[1:4] for line in capsys.readouterr().out.splitlines()]
    laws = ("extensivity", "monotonicity", "cut", "idempotence")
    assert out == [["calculus ori", law, "pass"] for law in laws] + [
        ["ontology ori_onto", "axioms-derivable", "pass"]
    ]


def test_graph_adds_an_ontology_over_a_conclusion_only_variable(tmp_path, capsys):
    defs = tmp_path / "ori.dsl"
    defs.write_text(ORI_DEFS, encoding="utf-8")
    argv = ["graph", "--manifest", str(tmp_path / "graph.dsl"), "--fuel-set", "100000"]
    assert main([*argv, "add-node", "--defs", str(defs), "--name", "ori_onto"]) == 0
    assert capsys.readouterr().out == "added node ori_onto\n"


def test_graph_links_check_at_a_set_cap_of_one(tmp_path, capsys):
    # the transfer scan skips the premise pairs over the cap, not the link
    defs = tmp_path / "defs.dsl"
    defs.write_text(SMALL_CAP_DEFS, encoding="utf-8")
    argv = ["graph", "--manifest", str(tmp_path / "graph.dsl"), "--fuel-set", "1"]
    assert main([*argv, "add-node", "--defs", str(defs), "--name", "conj_onto"]) == 0
    link = ["add-link", "--kind", "theorem", "--from", "conj_onto", "--to", "conj_onto"]
    assert main([*argv, *link]) == 0
    out = capsys.readouterr()
    assert out.out == "added node conj_onto\nadded link theorem conj_onto -> conj_onto [verified]\n"
    assert out.err == ""


def test_check_reports_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.dsl"
    bad.write_text("signature S { imp/2; }\ncalculus c over S { axiom A: imp(x1); }")
    code = main(["check", str(bad)])
    assert code == 2
    assert "ParseError" in capsys.readouterr().err


def test_derive_mp(defs_file, tmp_path, capsys):
    gamma = tmp_path / "gamma.txt"
    gamma.write_text("x1\nimp(x1, x2)\n")
    code = main([
        "derive", "--defs", str(defs_file), "--calculus", "cpl",
        "--gamma", str(gamma), "--phi", "x2", *FAST,
    ])
    assert code == 0
    assert capsys.readouterr().out.strip() == "DERIVED depth=1"


def test_derive_reads_comments_in_gamma_and_phi(defs_file, tmp_path, capsys):
    gamma = tmp_path / "gamma.txt"
    gamma.write_text("# premises\nx1  # the minor premise\nimp(x1, x2)  # the major premise\n")
    code = main([
        "derive", "--defs", str(defs_file), "--calculus", "cpl",
        "--gamma", str(gamma), "--phi", "x2  # the goal", *FAST,
    ])
    assert code == 0
    assert capsys.readouterr().out.strip() == "DERIVED depth=1"


def test_derive_unknown_within_bound(defs_file, capsys):
    code = main([
        "derive", "--defs", str(defs_file), "--calculus", "cpl", "--phi", "x1", *FAST,
    ])
    assert code == 0
    assert capsys.readouterr().out.startswith("UNKNOWN bound=")


@pytest.mark.parametrize(
    "argv",
    [
        ["derive", "--defs", "{defs}", "--calculus", "cpl", "--phi", "x1", "--fuel-rounds", "-1"],
        ["derive", "--defs", "{defs}", "--calculus", "cpl", "--phi", "x1", "--fuel-set", "0"],
        ["fibre", "--defs", "{defs}", "--left", "cpl", "--right", "conj", "--phi", "x1",
         "--rounds", "0"],
        ["check", "{defs}", "--samples", "0"],
        ["check", "{defs}", "--corpus-depth", "0"],
        ["graph", "--manifest", "{manifest}", "--corpus-depth", "0",
         "add-link", "--kind", "theorem", "--from", "efq", "--to", "efq"],
        ["graph", "--manifest", "{manifest}", "--corpus-depth", "0",
         "verify-decomposition", "--node", "efq", "--parts", "efq"],
        ["check", "{defs}", "--corpus-depth", "257"],
    ],
)
def test_bad_fuel_is_a_usage_error(defs_file, capsys, argv):
    paths = {"defs": defs_file, "manifest": defs_file.with_name("graph.dsl")}
    code = main([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("ParseError: bad ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, line",
    [
        (["derive", "--defs", "{defs}", "--calculus", "cpl", "--gamma", "{gamma}", "--phi", "x1",
          "--fuel-set", "10"],
         "CapExceeded: premise set larger than the set cap 10"),
        (["check", "{defs}", "--corpus-depth", "5"],
         "CapExceeded: enumeration would produce more than 200000 formulas"),
    ],
    ids=["premises", "corpus"],
)
def test_an_input_over_a_cap_is_a_usage_error(defs_file, capsys, argv, line):
    # nothing was verified: 19 premises against a set cap of 10, and a
    # depth-5 corpus over cpl
    gamma = defs_file.with_name("gamma.txt")
    gamma.write_text("".join(f"x{i}\n" for i in range(1, 20)))
    code = main([arg.format(defs=defs_file, gamma=gamma) for arg in argv])
    assert (code, capsys.readouterr().err) == (2, line + "\n")


# no formula deeper than MAX_NESTING reads back, and over a unary symbol a
# corpus needs memory quadratic in its depth
@pytest.mark.parametrize(
    "depth, code, out, err",
    [
        ("256", 0, "nodes=0 links=0\n", ""),
        ("257", 2, "", "ParseError: bad --corpus-depth: must be <= 256, got 257\n"),
    ],
    ids=["256", "257"],
)
def test_a_graph_corpus_depth_is_at_most_max_nesting(tmp_path, capsys, depth, code, out, err):
    manifest = tmp_path / "graph.dsl"
    assert main(["graph", "--manifest", str(manifest), "--corpus-depth", depth, "load"]) == code
    assert capsys.readouterr() == (out, err)


BAD_LINK_HEAD ="""signature S { a/0; } calculus c over S { }
ontology o { base c; onto_signature { } axioms { } }
ontology p { base c; onto_signature { } axioms { } }
morphism h : S -> S { a/0 -> a/0; }
splitting f : S -> S { a/0 -> a; }
"""
# link statements a defs file or manifest refuses, with the refusal
BAD_LINKS = [
    ("no-evidence", "link theorem o -> p\n", "link theorem o -> p lacks evidence"),
    ("two-evidence-clauses", "link theorem o -> p assert evidence verified depth=2 rounds=1 size=2 set=3\n",
     "link theorem o -> p has more than one evidence clause"),
    ("two-morphism-clauses", "link definition o -> p morphism h morphism h assert\n",
     "link definition o -> p has more than one morphism clause"),
    ("repeated", "link definition o -> p morphism h assert\n" * 2,
     "link definition o -> p is repeated"),
    ("unknown-map", "link definition o -> p morphism g assert\n",
     "link references unknown morphism 'g'"),
    ("morphism-as-splitting", "link splitting o -> p morphism h assert\n",
     "link references unknown morphism 'h'"),
    ("splitting-as-morphism", "link definition o -> p morphism f assert\n",
     "link references unknown morphism 'f'"),
    ("definition-without-map", "link definition o -> p assert\n",
     "definition links carry a signature morphism"),
    ("theorem-with-map", "link theorem o -> p morphism h assert\n",
     "theorem links carry no morphism"),
    ("unknown-status", "link theorem o -> p evidence refuted depth=2 rounds=1 size=2 set=3\n",
     "unknown evidence status 'refuted'"),
    ("wrong-field", "link theorem o -> p evidence verified rounds=1 depth=2 size=2 set=3\n",
     "expected evidence field 'depth', found 'rounds'"),
    ("unquoted-detail", "link theorem o -> p evidence verified depth=2 rounds=1 size=2 set=3 detail plain\n",
     "evidence detail must be a quoted string"),
]


@pytest.mark.parametrize(
    "text, argv, prefix",
    [
        ("signature S { a/0; } signature T { b/0; } morphism h : S -> T { }",
         ["check", "{path}"], "ParseError: morphism 'h': "),
        ("signature S { a/0; } calculus c over S { }\n"
         "ontology o { base c; onto_signature { b/0; } axioms { } }",
         ["check", "{path}"], "ParseError: ontological signature of 'o' "),
        ("signature S { a/0; } calculus c over S { }\n"
         "ontology o { base c; onto_signature { } axioms { } }\n"
         "link theorem o -> o evidence verified depth=2 rounds=0 size=16 set=512\n",
         ["graph", "--manifest", "{path}", "load"],
         "FormatError: corrupt manifest: bad evidence fuel: "),
        ("signature S { a/0; } calculus c over S { }\n"
         "ontology o { base c; onto_signature { } axioms { } }\n"
         "link theorem o -> o assert\n"
         "link theorem o -> o assert\n",
         ["graph", "--manifest", "{path}", "load"],
         "FormatError: corrupt manifest: link theorem o -> o is repeated"),
        pytest.param("signature S { a/" + "1" * 5000 + "; }",
                     ["check", "{path}"], "ParseError: number with 5000 digits is too long",
                     id="long-number"),
        pytest.param("signature 3 { a/0; }",
                     ["check", "{path}"], "ParseError: expected an identifier, found '3'\n",
                     id="not-an-identifier"),
        pytest.param("signature S { a/0; } signature T { b/0; } morphism h : S -> T { b/0 -> b/0; }",
                     ["check", "{path}"], "ParseError: symbol b/0 is not in the signature\n",
                     id="symbol-outside-signature"),
        pytest.param("signature S { a/0; } calculus c over S { lemma A: a; }",
                     ["check", "{path}"], "ParseError: unexpected 'lemma' in calculus block\n",
                     id="calculus-keyword"),
        pytest.param("theory T { }",
                     ["check", "{path}"], "ParseError: expected a block keyword, found 'theory'\n",
                     id="block-keyword"),
        *[
            pytest.param(BAD_LINK_HEAD + link, argv, prefix + message, id=f"{name}-{command}")
            for name, link, message in BAD_LINKS
            for command, argv, prefix in (
                ("check", ["check", "{path}"], "ParseError: "),
                ("load", ["graph", "--manifest", "{path}", "load"],
                 "FormatError: corrupt manifest: "),
            )
        ],
    ],
)
def test_unbuildable_blocks_are_usage_errors(tmp_path, capsys, text, argv, prefix):
    # each block reads well, but the morphism is partial, the onto_signature
    # leaves its base, the evidence fuel is below 1, or a link statement is
    # refused; or an arity has more digits than int() converts; or the text
    # breaks the grammar: a name, symbol, keyword or evidence clause is wrong
    path = tmp_path / "input.dsl"
    path.write_text(text, encoding="utf-8")
    code = main([arg.format(path=path) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith(prefix)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["check", "{bad}"], "ParseError: {bad} is not UTF-8 text (byte 0: "),
        (["derive", "--defs", "{bad}", "--calculus", "cpl", "--phi", "x1"],
         "ParseError: {bad} is not UTF-8 text (byte 0: "),
        (["derive", "--defs", "{defs}", "--calculus", "cpl", "--gamma", "{bad}", "--phi", "x1"],
         "ParseError: {bad} is not UTF-8 text (byte 0: "),
        (["fibre", "--defs", "{defs}", "--left", "cpl", "--right", "conj",
          "--gamma", "{bad}", "--phi", "x1"],
         "ParseError: {bad} is not UTF-8 text (byte 0: "),
        (["graph", "--manifest", "{bad}", "load"],
         "FormatError: corrupt manifest: not UTF-8 text (byte 0: "),
    ],
)
def test_undecodable_input_is_a_usage_error(defs_file, capsys, argv, prefix):
    bad = defs_file.with_name("bad.dsl")
    bad.write_bytes(b"\xff\xfe")
    paths = {"defs": defs_file, "bad": bad}
    code = main([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith(prefix.format(**paths))
    assert "Traceback" not in err


def test_deep_nesting_is_a_parse_error(defs_file, capsys):
    phi = "not(" * 3000 + "x1" + ")" * 3000
    code = main(["derive", "--defs", str(defs_file), "--calculus", "cpl", "--phi", phi])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("ParseError: formula nested deeper than")
    assert "Traceback" not in err


def test_derive_unknown_calculus(defs_file, capsys):
    code = main(["derive", "--defs", str(defs_file), "--calculus", "zzz", "--phi", "x1"])
    assert code == 2


@pytest.mark.parametrize(
    "argv, line",
    [
        (["fibre", "--defs", "{defs}", "--left", "zzz", "--right", "conj", "--phi", "x1"],
         "UnknownSymbol: unknown calculus name for --left or --right"),
        (["fibre", "--defs", "{defs}", "--left", "cpl", "--right", "efq", "--phi", "x1"],
         "UnknownSymbol: unknown calculus name for --left or --right"),
        (["connect", "--defs", "{defs}", "--left", "zzz", "--right", "conj_onto", "--as", "m"],
         "UnknownSymbol: unknown ontology name for --left or --right"),
        (["connect", "--defs", "{defs}", "--left", "efq", "--right", "cpl", "--as", "m"],
         "UnknownSymbol: unknown ontology name for --left or --right"),
        (["graph", "--manifest", "{manifest}", "add-node", "--defs", "{defs}", "--name", "zzz"],
         "UnknownSymbol: unknown ontology 'zzz' in {defs}"),
    ],
)
def test_unknown_names_are_usage_errors(defs_file, capsys, argv, line):
    paths = {"defs": defs_file, "manifest": defs_file.with_name("graph.dsl")}
    code = main([arg.format(**paths) for arg in argv])
    assert (code, capsys.readouterr().err) == (2, line.format(**paths) + "\n")
    assert not paths["manifest"].exists()


def test_fibre_worked_example(defs_file, tmp_path, capsys):
    gamma = tmp_path / "gamma.txt"
    gamma.write_text("and(x1, x2)\nimp(x1, x3)\n")
    dump = tmp_path / "session.txt"
    code = main([
        "fibre", "--defs", str(defs_file), "--left", "cpl", "--right", "conj",
        "--gamma", str(gamma), "--phi", "x3", "--rounds", "2",
        "--fuel-size", "12", "--fuel-set", "4000", "--dump", str(dump),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "DERIVED depth=2"
    assert dump.read_text().startswith("session\n")


def test_readme_fibre_dump_bytes_are_pinned(defs_file, tmp_path, capsys):
    # the README's fibre command, run on this file's DEFS; the digest pins
    # the bytes that earlier releases wrote for it
    premises = tmp_path / "premises.txt"
    premises.write_text("and(x1, x2)\nimp(x1, x3)\n")
    dump = tmp_path / "session.txt"
    code = main([
        "fibre", "--defs", str(defs_file), "--left", "cpl", "--right", "conj",
        "--gamma", str(premises), "--phi", "x3", "--rounds", "2", "--dump", str(dump),
    ])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "DERIVED depth=2"
    data = dump.read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "ea7d7f3db959cf94559b1bae086dd416a8b14403b5027c394b6ace86b65d67df"
    )
    assert dump_session(load_session(data.decode(), presets.cpl(), presets.conj())) == data.decode()


# a comment among whitespace, as it may stand between any two tokens
SPACER = "  # a comment\n\t \n"


def spaced(text: str) -> str:
    """text with SPACER before, between and after all of its tokens"""
    return SPACER + SPACER.join(tokenize(text)) + SPACER


def test_every_input_takes_a_comment_wherever_whitespace_may(tmp_path, capsys):
    runs = {}
    for name, spread in (("plain", str), ("spread", spaced)):
        home = tmp_path / name
        home.mkdir()
        defs, gamma, dump = home / "defs.dsl", home / "gamma.txt", home / "session.txt"
        defs.write_text(spread(DEFS))
        # a gamma file holds one formula per line, so its whitespace within a
        # line has no newline; comment lines and blank lines may stand between
        lines = ["and(x1, x2)", "imp(x1, x3)"]
        if spread is spaced:
            lines = ["# premises", *(" \t".join(tokenize(line)) + "\t # c\n" for line in lines)]
        gamma.write_text("\n".join(lines) + "\n")
        code = main([
            "fibre", "--defs", str(defs), "--left", "cpl", "--right", "conj", "--gamma", str(gamma),
            "--phi", spread("x3"), "--rounds", "2", *FAST[2:], "--dump", str(dump),
        ])
        assert code == 0
        manifest = home / "graph.dsl"
        assert graph_cmd(manifest, "add-node", "--defs", str(defs), "--name", "efq") == 0
        assert graph_cmd(manifest, "add-link", "--kind", "theorem", "--from", "efq", "--to", "efq") == 0
        runs[name] = capsys.readouterr().out.splitlines()[0], dump.read_text(), manifest.read_bytes()
    assert runs["spread"] == runs["plain"]
    verdict, text, manifest_bytes = runs["plain"]
    assert verdict == "DERIVED depth=2"

    # a manifest read back from its spread form saves the same bytes
    spread_manifest, saved = tmp_path / "spread.dsl", tmp_path / "saved.dsl"
    spread_manifest.write_text(spaced(manifest_bytes.decode()))
    assert graph_cmd(spread_manifest, "save", "--to", str(saved)) == 0
    assert saved.read_bytes() == manifest_bytes

    # a session dump loads to the same session however it is spaced
    cpl, conj = presets.cpl(), presets.conj()
    assert "\n3\t" in text
    for variant in (
        spaced(text),
        text.replace("session\n", "session  # a session\n"),
        text.replace("\nunion", "  # the fuel\nunion"),
        text.replace("\n3\t", "\n# the entries go on\n3\t"),
        text.replace("\t", "   "),
    ):
        assert dump_session(load_session(variant, cpl, conj)) == text
    # a junk line, a missing section, a repeated section
    union_line = next(line for line in text.splitlines() if line.startswith("union"))
    for bad, message in (
        (text.replace("\nfuel", "\njunk\nfuel"), "expected 'fuel', found 'junk'"),
        (text.replace(union_line + "\n", ""), "expected 'union', found 'intern'"),
        (text.replace("\nunion", "\nfuel 1 2 3\nunion"), "expected 'union', found 'fuel'"),
        (text.replace("\nintern", "\nunion\nintern"), "expected 'intern', found 'union'"),
    ):
        with pytest.raises(FormatError) as caught:
            load_session(bad, cpl, conj)
        assert str(caught.value) == f"corrupt session dump: {message}"

    # a union whose symbols are named like the dump's keywords round-trips
    keywords = presets.rule_free(make_signature([("session", 0), ("fuel", 1), ("union", 2), ("intern", 2)]))
    session = open_session(keywords, conj, Fuel(1, 8, 100))
    u = lambda t: parse_formula(t, session.union_sig)
    h_closure(session, "left", [u("intern(and(x1, session), fuel(x2))")])
    h_closure(session, "right", [u("and(union(x1, session), x2)")])
    text = dump_session(session)
    assert "union\tsession/0 fuel/1 and/2 intern/2 union/2\nintern\n1\t" in text
    assert dump_session(load_session(spaced(text), keywords, conj)) == text


def test_fibre_answers_a_separated_goal_where_the_alternation_outgrows_the_set_cap(defs_file, tmp_path, capsys):
    # the alternation for {x1, x2} |- bot outgrows a set cap of 40 in round
    # 1, but bot is an atom that a sound matrix of the union sets to 0 while
    # x1 and x2 are 1: the bounded answer holds at every fuel, and the
    # dump holds no interning entry, since the alternation never ran
    gamma = tmp_path / "gamma.txt"
    gamma.write_text("x1\nx2\n")
    dump = tmp_path / "session.txt"
    code = main([
        "fibre", "--defs", str(defs_file), "--left", "cpl", "--right", "conj", "--gamma", str(gamma),
        "--phi", "bot", "--rounds", "2", "--fuel-size", "14", "--fuel-set", "40", "--dump", str(dump),
    ])
    assert code == 0
    assert capsys.readouterr().out == f"UNKNOWN bound=rounds:2,size:14,set:40\nsession dumped to {dump}\n"
    assert dump.read_text() == "session\nfuel\t2\t14\t40\nunion\tbot/0 not/1 and/2 imp/2\nintern\n"


def test_fibre_prints_a_set_cap_stop_as_a_bounded_answer(defs_file, tmp_path, capsys):
    # no sound matrix separates imp(bot, bot) from {x1, x2}, so the
    # alternation runs, and its combined set outgrows a set cap of 40 in
    # round 1: the answer is bounded, as derive's is, and the dump holds
    # the entry the alternation registered
    gamma = tmp_path / "gamma.txt"
    gamma.write_text("x1\nx2\n")
    dump = tmp_path / "d.txt"
    code = main([
        "fibre", "--defs", str(defs_file), "--left", "cpl", "--right", "conj", "--gamma", str(gamma),
        "--phi", "imp(bot, bot)", "--fuel-rounds", "2", "--fuel-size", "14", "--fuel-set", "40",
        "--dump", str(dump),
    ])
    assert code == 0
    assert capsys.readouterr() == (f"UNKNOWN bound=rounds:2,size:14,set:40\nsession dumped to {dump}\n", "")
    assert dump.read_text() == (
        "session\nfuel\t2\t14\t40\nunion\tbot/0 not/1 and/2 imp/2\nintern\n1\timp(bot, bot)\n"
    )


def test_fibre_rounds_is_fuel_rounds(defs_file, capsys):
    # an UNKNOWN answer prints its bounds, so the two spellings must agree
    runs = []
    for flag in ("--rounds", "--fuel-rounds"):
        code = main([
            "fibre", "--defs", str(defs_file), "--left", "cpl", "--right", "conj",
            "--phi", "x4", flag, "2", "--fuel-size", "12", "--fuel-set", "4000",
        ])
        runs.append((code, capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][1].out == "UNKNOWN bound=rounds:2,size:12,set:4000\n"


def test_connect_emits_loadable_snippet(defs_file, capsys):
    code = main([
        "connect", "--defs", str(defs_file), "--left", "efq", "--right", "conj_onto",
        "--as", "merged", *FAST,
    ])
    out = capsys.readouterr().out
    assert code == 0
    from ontoweave.dsl import parse_document

    blocks = out.split("axioms-derivable")[0]
    doc = parse_document(blocks)
    assert "merged" in doc.ontologies
    assert [a.text for a in doc.ontologies["merged"].axioms] == ["imp(bot, x1)"]


def test_connect_renames_across_axioms_and_rules(tmp_path, capsys):
    # axioms and rules share one name space in a calculus block
    defs = tmp_path / "clash.dsl"
    defs.write_text(
        "signature S { a/0; } signature T { b/0; }\n"
        "calculus l over S { axiom X: a; rule Y: a |- a; }\n"
        "calculus r over T { rule X: b |- b; axiom Y: b; axiom X_2: b; }\n"
        "ontology L { base l; onto_signature { } axioms { } }\n"
        "ontology R { base r; onto_signature { } axioms { } }\n",
        encoding="utf-8",
    )
    assert main(["connect", "--defs", str(defs), "--left", "L", "--right", "R", *FAST]) == 0
    out = capsys.readouterr().out
    from ontoweave.dsl import parse_document

    cal = parse_document(out.split("axioms-derivable")[0]).calculi["connected_cal"]
    assert [r.name for r in cal.axioms] == ["X", "X_2", "Y_2"]
    assert [r.name for r in cal.rules] == ["X_3", "Y"]


def graph_cmd(manifest, *args):
    return main(["graph", "--manifest", str(manifest), *FAST, *args])


def test_graph_workflow(defs_file, tmp_path, capsys):
    manifest = tmp_path / "graph.dsl"
    assert graph_cmd(manifest, "add-node", "--defs", str(defs_file), "--name", "efq") == 0
    assert graph_cmd(manifest, "add-node", "--defs", str(defs_file), "--name", "conj_onto") == 0
    assert graph_cmd(manifest, "add-link", "--kind", "theorem",
                     "--from", "efq", "--to", "efq") == 0
    capsys.readouterr()
    assert graph_cmd(manifest, "verify-refinement", "--from", "efq", "--to", "efq") == 0
    assert "holds" in capsys.readouterr().out
    assert graph_cmd(manifest, "verify-refinement", "--from", "conj_onto", "--to", "efq") == 1
    capsys.readouterr()
    assert graph_cmd(manifest, "load") == 0
    assert capsys.readouterr().out.strip() == "nodes=2 links=1"
    # the heterogeneous shape: a theorem link efq -> efq and a monomorphic
    # definition link conj_onto -> efq
    maps = tmp_path / "maps.dsl"
    maps.write_text(DEFS + "morphism m : CONJ -> CPL { and/2 -> imp/2; }\n", encoding="utf-8")
    assert graph_cmd(manifest, "add-link", "--kind", "definition", "--from", "conj_onto",
                     "--to", "efq", "--defs", str(maps), "--morphism", "m", "--assert") == 0
    capsys.readouterr()
    via = ["verify-refinement", "--to", "conj_onto", "--via", "efq"]
    assert graph_cmd(manifest, *via, "--from", "efq") == 0
    assert capsys.readouterr().out == "refinement\theterogeneous\tholds\n"
    assert graph_cmd(manifest, *via, "--from", "conj_onto") == 1
    assert capsys.readouterr().out == "refinement\theterogeneous\tfails\n"


BIG_AXIOM_DEFS = """
signature CPL { bot/0; not/1; imp/2; }
calculus cpl over CPL {
  axiom A1: imp(x1, imp(x2, x1));
  rule MP: x1, imp(x1, x2) |- x2;
}
ontology big {
  base cpl;
  onto_signature { bot/0; }
  axioms { imp(imp(imp(x1, x2), imp(x2, x3)), imp(not(x1), imp(x3, x1))); }
}
"""


def test_an_axiom_over_the_size_cap_fails_validation(tmp_path, capsys):
    # the axiom has 14 nodes: within the default fuel it is derived, at
    # --fuel-size 12 no closure admits it
    defs = tmp_path / "defs.dsl"
    defs.write_text(BIG_AXIOM_DEFS)
    add = ["add-node", "--defs", str(defs), "--name", "big"]
    code = main(["graph", "--manifest", str(tmp_path / "small.dsl"), "--fuel-size", "12", *add])
    err = capsys.readouterr().err
    assert code == 1
    assert err == (
        "ValidationFailed: big: axioms-derivable failed: "
        "imp(imp(imp(x1, x2), imp(x2, x3)), imp(not(x1), imp(x3, x1)))\n"
    )
    assert main(["graph", "--manifest", str(tmp_path / "default.dsl"), *add]) == 0
    assert capsys.readouterr().out == "added node big\n"
    # check reports the failure and names its first witness on stderr
    assert main(["check", str(defs), "--samples", "4", "--fuel-size", "12"]) == 1
    out, err = capsys.readouterr()
    axiom = "imp(imp(imp(x1, x2), imp(x2, x3)), imp(not(x1), imp(x3, x1)))"
    assert out.splitlines()[-1] == f"{defs}\tontology big\taxioms-derivable\tfail\t{axiom}"
    assert err == axiom + "\n"


ZOO_DEFS = """
signature Z {
  bot/0; not/1; imp/2;
  dog/0; cat/0; bird/0; fish/0; mammal/0; animal/0; pet/0; wild/0; tame/0; alive/0;
}
calculus zc over Z {
  axiom A1: imp(x1, imp(x2, x1));
  axiom A2: imp(imp(x1, imp(x2, x3)), imp(imp(x1, x2), imp(x1, x3)));
  axiom A3: imp(imp(not(x1), not(x2)), imp(x2, x1));
  axiom DS: imp(not(x1), imp(x1, x2));
  rule MP: x1, imp(x1, x2) |- x2;
  negation not;
}
ontology zoo {
  base zc;
  onto_signature { dog/0; mammal/0; animal/0; }
  axioms { imp(dog, mammal); imp(mammal, animal); imp(bot, x1); }
}
"""


def test_axioms_within_the_size_cap_pass_at_the_default_fuel(tmp_path, capsys):
    # every axiom fits the size cap, so validation passes, although a
    # closure at the default fuel fills round 1 with A1 and A2 instances
    # before it stages imp(bot, x1)
    defs = tmp_path / "defs.dsl"
    defs.write_text(ZOO_DEFS)
    add = ["add-node", "--defs", str(defs), "--name", "zoo"]
    code = main(["graph", "--manifest", str(tmp_path / "graph.dsl"), *add])
    assert (code, capsys.readouterr().out) == (0, "added node zoo\n")
    assert main(["check", str(defs), "--samples", "4"]) == 0
    assert "ontology zoo\taxioms-derivable\tpass" in capsys.readouterr().out


def test_graph_duplicate_node(defs_file, tmp_path, capsys):
    manifest = tmp_path / "graph.dsl"
    graph_cmd(manifest, "add-node", "--defs", str(defs_file), "--name", "efq")
    code = graph_cmd(manifest, "add-node", "--defs", str(defs_file), "--name", "efq")
    assert code == 1
    assert "DuplicateName" in capsys.readouterr().err


def test_graph_cycle_error(defs_file, tmp_path, capsys):
    manifest = tmp_path / "graph.dsl"
    graph_cmd(manifest, "add-node", "--defs", str(defs_file), "--name", "efq")
    graph_cmd(manifest, "add-node", "--defs", str(defs_file), "--name", "conj_onto")
    # asserted links skip checking but still respect acyclicity
    assert graph_cmd(manifest, "add-link", "--kind", "theorem",
                     "--from", "efq", "--to", "conj_onto", "--assert") == 0
    code = graph_cmd(manifest, "add-link", "--kind", "theorem",
                     "--from", "conj_onto", "--to", "efq", "--assert")
    assert code == 1
    assert "CycleError" in capsys.readouterr().err


def test_graph_save_stdout_matches_manifest(defs_file, tmp_path, capsys):
    manifest = tmp_path / "graph.dsl"
    graph_cmd(manifest, "add-node", "--defs", str(defs_file), "--name", "efq")
    capsys.readouterr()
    assert graph_cmd(manifest, "save") == 0
    assert capsys.readouterr().out == manifest.read_text()


def test_workspace_stays_reparseable(defs_file, tmp_path):
    from ontoweave.devgraph import load_graph

    manifest = tmp_path / "graph.dsl"
    graph_cmd(manifest, "add-node", "--defs", str(defs_file), "--name", "efq")
    # as text, so each manifest is parsed rather than answered from the save slot
    first = load_graph(manifest.read_bytes().decode("utf-8"))
    graph_cmd(manifest, "add-link", "--kind", "theorem", "--from", "efq", "--to", "efq")
    second = load_graph(manifest.read_bytes().decode("utf-8"))
    assert set(first.nodes) == {"efq"}
    assert len(second.links) == 1


def _crash_on_replace(src, dst):
    raise OSError("simulated crash during rename")


def _crash_on_swap(monkeypatch):
    """Make both ways of swapping a written file into place fail."""
    monkeypatch.setattr(os, "replace", _crash_on_replace)
    monkeypatch.setattr(cli, "_exchange", _crash_on_replace)


@pytest.mark.parametrize("exchange", [True, False], ids=["exchange", "rename"])
def test_write_over_existing_file(tmp_path, monkeypatch, exchange):
    if not exchange:
        monkeypatch.setattr(cli, "_exchange", lambda src, dst: False)
    target = tmp_path / "graph.dsl"
    target.write_bytes(b"old\n")
    cli._write_atomically(target, b"new\n")
    assert target.read_bytes() == b"new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["graph.dsl"]


def test_write_onto_a_directory_fails_and_keeps_it(tmp_path):
    target = tmp_path / "saved"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        cli._write_atomically(target, b"new\n")
    assert target.is_dir()
    assert [p.name for p in tmp_path.iterdir()] == ["saved"]


@pytest.mark.parametrize("target", [".", "/"])
def test_a_write_target_with_no_file_name_is_an_io_error(defs_file, tmp_path, capsys, monkeypatch, target):
    # fibre prints its verdict before it dumps; save writes nothing else
    monkeypatch.chdir(tmp_path)
    manifest = tmp_path / "graph.dsl"
    assert graph_cmd(manifest, "add-node", "--defs", str(defs_file), "--name", "efq") == 0
    capsys.readouterr()
    gamma = tmp_path / "gamma.txt"
    gamma.write_text("x1\n")
    fibre = ["fibre", "--defs", str(defs_file), "--left", "cpl", "--right", "conj"]
    for argv, out in (
        ([*fibre, "--gamma", str(gamma), "--phi", "x1", "--dump", target], "DERIVED depth=0\n"),
        (["graph", "--manifest", str(manifest), "save", "--to", target], ""),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == out
        assert captured.err == f"io error: [Errno 21] Is a directory: '{target}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["defs.dsl", "gamma.txt", "graph.dsl"]


def test_failed_manifest_write_keeps_old_manifest(defs_file, tmp_path, capsys, monkeypatch):
    manifest = tmp_path / "graph.dsl"
    assert graph_cmd(manifest, "add-node", "--defs", str(defs_file), "--name", "efq") == 0
    before = manifest.read_bytes()
    _crash_on_swap(monkeypatch)
    code = graph_cmd(manifest, "add-node", "--defs", str(defs_file), "--name", "conj_onto")
    assert code == 2
    assert "simulated crash" in capsys.readouterr().err
    assert manifest.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["defs.dsl", "graph.dsl"]


def test_failed_save_to_keeps_old_file(defs_file, tmp_path, capsys, monkeypatch):
    manifest = tmp_path / "graph.dsl"
    saved = tmp_path / "saved.dsl"
    assert graph_cmd(manifest, "add-node", "--defs", str(defs_file), "--name", "efq") == 0
    saved.write_bytes(b"previous save\n")
    _crash_on_swap(monkeypatch)
    assert graph_cmd(manifest, "save", "--to", str(saved)) == 2
    assert "simulated crash" in capsys.readouterr().err
    assert saved.read_bytes() == b"previous save\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["defs.dsl", "graph.dsl", "saved.dsl"]


def test_failed_dump_keeps_old_file(defs_file, tmp_path, capsys, monkeypatch):
    gamma = tmp_path / "gamma.txt"
    gamma.write_text("x1\n")
    dump = tmp_path / "session.txt"
    dump.write_bytes(b"previous dump\n")
    _crash_on_swap(monkeypatch)
    code = main([
        "fibre", "--defs", str(defs_file), "--left", "cpl", "--right", "conj",
        "--gamma", str(gamma), "--phi", "x1", "--dump", str(dump),
    ])
    assert code == 2
    assert "simulated crash" in capsys.readouterr().err
    assert dump.read_bytes() == b"previous dump\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["defs.dsl", "gamma.txt", "session.txt"]


def test_cli_determinism_same_seed(defs_file, capsys):
    def run():
        main(["check", str(defs_file), "--samples", "6", "--seed", "5", *FAST])
        return capsys.readouterr().out

    assert run() == run()


SPLIT_DEFS = """
signature W { w/2; }
signature P1 { p1/2; }
signature P2 { p2/2; }
signature C { c/2; }
calculus wc over W {
  rule E1: w(x1, x2) |- x1;
  rule E2: w(x1, x2) |- x2;
  rule I: x1, x2 |- w(x1, x2);
}
calculus p1c over P1 {
  rule E1: p1(x1, x2) |- x1;
  rule E2: p1(x1, x2) |- x2;
  rule I: x1, x2 |- p1(x1, x2);
}
calculus p2c over P2 {
  rule E1: p2(x1, x2) |- x1;
  rule E2: p2(x1, x2) |- x2;
  rule I: x1, x2 |- p2(x1, x2);
}
calculus cc over C {
  rule E1: c(x1, x2) |- x1;
  rule E2: c(x1, x2) |- x2;
  rule I: x1, x2 |- c(x1, x2);
}
ontology W_node { base wc; onto_signature { w/2; } axioms { } }
ontology P1_node { base p1c; onto_signature { p1/2; } axioms { } }
ontology P2_node { base p2c; onto_signature { p2/2; } axioms { } }
ontology C_node { base cc; onto_signature { c/2; } axioms { } }
splitting w_p1 : W -> P1 { w/2 -> p1(x1, x2); }
splitting w_p2 : W -> P2 { w/2 -> p2(x1, x2); }
splitting c_p1 : C -> P1 { c/2 -> p1(x1, x2); }
splitting c_p2 : C -> P2 { c/2 -> p2(x1, x2); }
splitting c_w : C -> W { c/2 -> w(x1, x2); }
"""


def test_cli_decomposition_workflow(tmp_path, capsys):
    defs = tmp_path / "split.dsl"
    defs.write_text(SPLIT_DEFS, encoding="utf-8")
    manifest = tmp_path / "graph.dsl"
    for name in ("W_node", "P1_node", "P2_node", "C_node"):
        assert graph_cmd(manifest, "add-node", "--defs", str(defs), "--name", name) == 0
    links = [
        ("W_node", "P1_node", "w_p1"),
        ("W_node", "P2_node", "w_p2"),
        ("C_node", "P1_node", "c_p1"),
        ("C_node", "P2_node", "c_p2"),
        ("C_node", "W_node", "c_w"),
    ]
    for src, dst, morphism in links:
        code = graph_cmd(
            manifest, "add-link", "--kind", "splitting", "--from", src, "--to", dst,
            "--defs", str(defs), "--morphism", morphism,
        )
        assert code == 0
    capsys.readouterr()
    code = graph_cmd(
        manifest, "verify-decomposition", "--node", "W_node",
        "--parts", "P1_node", "P2_node",
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "cones-mediated\tpass" in out


def test_cli_integration_workflow(tmp_path, capsys):
    defs = tmp_path / "integ.dsl"
    defs.write_text(
        """
signature A { and/2; }
signature B { or/2; }
signature R { ref/2; }
calculus ac over A {
  rule E1: and(x1, x2) |- x1;
  rule I: x1, x2 |- and(x1, x2);
}
calculus bc over B {
  rule E1: or(x1, x2) |- x1;
  rule I: x1, x2 |- or(x1, x2);
}
calculus a0 over A { }
calculus b0 over B { }
calculus rc over R { }
ontology O1 { base a0; onto_signature { } axioms { } }
ontology O2 { base b0; onto_signature { } axioms { } }
ontology O1P { base ac; onto_signature { and/2; } axioms { } }
ontology O2P { base bc; onto_signature { or/2; } axioms { } }
ontology O { base rc; onto_signature { } axioms { } }
morphism t1 : R -> A { ref/2 -> and/2; }
morphism t2 : R -> B { ref/2 -> or/2; }
""",
        encoding="utf-8",
    )
    manifest = tmp_path / "graph.dsl"
    for name in ("O1", "O2", "O1P", "O2P", "O"):
        assert graph_cmd(manifest, "add-node", "--defs", str(defs), "--name", name) == 0
    assert graph_cmd(manifest, "add-link", "--kind", "theorem",
                     "--from", "O1", "--to", "O1P") == 0
    assert graph_cmd(manifest, "add-link", "--kind", "theorem",
                     "--from", "O2", "--to", "O2P") == 0
    for dst, morphism in (("O1P", "t1"), ("O2P", "t2")):
        assert graph_cmd(manifest, "add-link", "--kind", "definition",
                         "--from", "O", "--to", dst,
                         "--defs", str(defs), "--morphism", morphism) == 0
    capsys.readouterr()
    assert graph_cmd(manifest, "verify-integration", "--node", "O",
                     "--left", "O1", "--right", "O2", "--conservative") == 0
    assert "holds" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["derive", "--defs", "{defs}", "--calculus", "cpl", "--phi", "x1", "--seed", "1"],
        ["derive", "--defs", "{defs}", "--calculus", "cpl", "--phi", "x1", "--corpus-depth", "1"],
        ["fibre", "--defs", "{defs}", "--left", "cpl", "--right", "conj", "--phi", "x1",
         "--seed", "1"],
        ["fibre", "--defs", "{defs}", "--left", "cpl", "--right", "conj", "--phi", "x1",
         "--corpus-depth", "1"],
        ["connect", "--defs", "{defs}", "--left", "efq", "--right", "conj_onto", "--seed", "1"],
        ["connect", "--defs", "{defs}", "--left", "efq", "--right", "conj_onto",
         "--corpus-depth", "1"],
        ["graph", "--manifest", "{manifest}", "--seed", "1", "load"],
        ["derive", "--defs", "{defs}"],
        ["derive", "--defs", "{defs}", "--calculus", "cpl", "--phi", "x1", "--fuel-rounds", "abc"],
    ],
)
def test_flags_nothing_reads_are_rejected(defs_file, capsys, argv):
    # also a missing required flag and a non-integer fuel: every argument
    # error is one stderr line and exit 2, like every other usage error
    paths = {"defs": defs_file, "manifest": defs_file.with_name("graph.dsl")}
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("ontoweave")
    assert "Traceback" not in captured.err


CONE_DEFS = """
signature W { w/2; }
signature P { p/2; }
calculus wc over W {
  rule E1: w(x1, x2) |- x1;
  rule E2: w(x1, x2) |- x2;
  rule I: x1, x2 |- w(x1, x2);
}
calculus pc over P {
  rule E1: p(x1, x2) |- x1;
  rule E2: p(x1, x2) |- x2;
  rule I: x1, x2 |- p(x1, x2);
}
ontology W_node { base wc; onto_signature { w/2; } axioms { } }
ontology C_node { base wc; onto_signature { w/2; } axioms { } }
ontology P_node { base pc; onto_signature { p/2; } axioms { } }
splitting proj : W -> P { w/2 -> p(x1, x2); }
splitting mediator : W -> W { w/2 -> w(x1, x2); }
splitting leg : W -> P { w/2 -> p(x2, x1); }
splitting twin : W -> P { w/2 -> p(x1, x2); }
morphism twin : W -> P { w/2 -> p/2; }
morphism back : P -> W { p/2 -> w/2; }
"""


@pytest.fixture()
def cone_manifest(tmp_path):
    """W -> P by proj, and a cone C whose leg to P swaps the arguments, so
    proj after the identity mediator C -> W is not the leg."""
    defs = tmp_path / "cone.dsl"
    defs.write_text(CONE_DEFS, encoding="utf-8")
    manifest = tmp_path / "graph.dsl"
    for name in ("W_node", "C_node", "P_node"):
        assert graph_cmd(manifest, "add-node", "--defs", str(defs), "--name", name) == 0
    for src, dst, name in (("W_node", "P_node", "proj"), ("C_node", "W_node", "mediator"),
                           ("C_node", "P_node", "leg")):
        code = graph_cmd(manifest, "add-link", "--kind", "splitting", "--from", src,
                         "--to", dst, "--defs", str(defs), "--morphism", name)
        assert code == 0
    return defs, manifest


@pytest.mark.parametrize("depth", ["1", "2"])
def test_non_commuting_cone_fails_at_every_corpus_depth(cone_manifest, capsys, depth):
    # at depth 1 a corpus scan sees only the leaves x1, x2, which every
    # splitting fixes; the exact comparison does not depend on the depth
    _, manifest = cone_manifest
    capsys.readouterr()
    code = main(["graph", "--manifest", str(manifest), "--corpus-depth", depth,
                 "verify-decomposition", "--node", "W_node", "--parts", "P_node"])
    out = capsys.readouterr().out
    assert code == 1
    assert "cones-mediated\tfail\tcone C_node has no commuting mediator to W_node" in out


@pytest.mark.parametrize(
    "link, prefix",
    [
        (["--kind", "definition"], "ParseError: definition links need --defs and --morphism"),
        (["--kind", "splitting"], "ParseError: splitting links need --defs and --morphism"),
        (["--kind", "definition", "--defs", "{defs}", "--morphism", "proj"],
         "ParseError: {defs} has no morphism named 'proj'"),
        (["--kind", "splitting", "--defs", "{defs}", "--morphism", "nope"],
         "ParseError: {defs} has no splitting named 'nope'"),
        (["--kind", "theorem", "--defs", "{defs}", "--morphism", "twin"],
         "ParseError: theorem links carry no --morphism"),
        # a map or languages the link's ends do not fit
        (["--kind", "definition", "--defs", "{defs}", "--morphism", "back"],
         "SignatureError: morphism endpoints do not match the ontologies"),
        (["--kind", "theorem"], "SignatureError: weaker-than needs the left language inside the right one"),
    ],
)
def test_add_link_map_must_match_its_kind(cone_manifest, capsys, link, prefix):
    defs, manifest = cone_manifest
    capsys.readouterr()
    argv = [arg.format(defs=defs) for arg in link]
    code = graph_cmd(manifest, "add-link", "--from", "W_node", "--to", "P_node", *argv)
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith(prefix.format(defs=defs))
    assert "Traceback" not in err


def test_add_link_reaches_a_splitting_that_shares_a_morphism_name(cone_manifest):
    from ontoweave.devgraph import load_graph
    from ontoweave.dsl import parse_document

    defs, manifest = cone_manifest
    code = graph_cmd(manifest, "add-link", "--kind", "splitting", "--from", "C_node",
                     "--to", "P_node", "--defs", str(defs), "--morphism", "twin")
    assert code == 0
    maps = {l.morphism for l in load_graph(manifest.read_bytes()).links_between("C_node", "P_node")}
    assert parse_document(defs.read_text()).splittings["twin"] in maps


def test_readme_cli_block_parses():
    # optional flags shown in brackets are parsed as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").replace("[", "").replace("]", "").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("ontoweave ")]
    assert len(commands) == 11
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: ontoweave {shlex.join(argv)}")
