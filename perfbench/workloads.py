"""The three benchmark workloads: fixed catalogues, seeded streams over them,
and one checked op per call.

Every workload draws its ops from a fixed catalogue whose expected outputs
are recorded in perfbench/expected/<workload>.json (see record.py). The run
seed only chooses the order of the stream, so every op any seed can produce
has a recorded expected output.

Ops call the package through module attributes (``consequence.derives``,
``fibring.fibred_derives``, ``cli.main``), so the traced run's wrappers see
them the way any caller would.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import tempfile
from pathlib import Path

from ontoweave import cli, consequence, fibring, presets, syntax
from ontoweave.consequence import Fuel
from ontoweave.devgraph import load_graph, save_graph
from ontoweave.errors import OntoweaveError
from ontoweave.syntax import apply_symbol, parse_formula

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"

# catalogues are drawn once from this seed; --seed orders the stream
CATALOGUE_SEED = 0


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    """One catalogue of ops plus the records of their expected outputs."""

    name = ""
    # peak RSS is read after this many ops, not at the deadline, so a faster
    # program that gets through more ops in a run does not read as bigger
    RSS_AT_OPS = 0

    def __init__(self, expected_dir: Path, work_dir: Path):
        self.expected_dir = expected_dir
        self.work_dir = work_dir

    def catalogue_text(self) -> str:
        raise NotImplementedError

    def load_expected(self) -> None:
        """Read the records and refuse to run if they describe another catalogue."""
        data = json.loads((self.expected_dir / f"{self.name}.json").read_text(encoding="utf-8"))
        if data["catalogue_sha256"] != sha256_text(self.catalogue_text()):
            raise SystemExit(
                f"{self.name}: expected records belong to another catalogue; rerun record.py"
            )
        self.records = data

    def all_ops(self):
        """Every catalogue op once, in catalogue order (for record.py)."""
        return range(len(self.catalogue))

    def expected(self, op) -> str:
        return self.records["outputs"][op]

    def finish(self) -> list[str]:
        """End-of-run checks outside the timed phase; returns failure notes."""
        return []


# ---------------------------------------------------------------------------
# derive-mix


class DeriveMix(Workload):
    """Bounded ``derives`` queries on CPL and its implication fragment.

    The catalogue is built in blocks of 20 with a fixed make-up, so any long
    enough stretch of the stream has the same mix: per fuel, 3 explosion
    queries {A, not(A)} |- B and 2 plain queries on CPL, and 5 plain queries
    on the implication fragment.
    """

    name = "derive-mix"
    RSS_AT_OPS = 1500
    BLOCKS = 300
    FUELS = (Fuel(3, 24, 50_000), Fuel(6, 31, 512))  # README fuel, CLI default

    def setup(self) -> None:
        self.cals = {"cpl": presets.cpl(), "imp": presets.implication_fragment()}
        premises = {k: syntax.enumerate_formulas(c.sig, 2, 2) for k, c in self.cals.items()}
        goals = {k: syntax.enumerate_formulas(c.sig, 3, 2) for k, c in self.cals.items()}
        neg = self.cals["cpl"].negation
        rng = random.Random(CATALOGUE_SEED)
        self.catalogue = []
        for _ in range(self.BLOCKS):
            for fuel in self.FUELS:
                for _ in range(3):
                    a = rng.choice(premises["cpl"])
                    gamma = (a, apply_symbol(neg, (a,)))
                    self.catalogue.append(("cpl", gamma, rng.choice(goals["cpl"]), fuel))
                for key, count in (("cpl", 2), ("imp", 5)):
                    for _ in range(count):
                        gamma = tuple(rng.sample(premises[key], rng.randint(0, 2)))
                        self.catalogue.append((key, gamma, rng.choice(goals[key]), fuel))

    def catalogue_text(self) -> str:
        return "\n".join(
            f"{key}\t{','.join(f.text for f in gamma)}\t{phi.text}\t"
            f"{fuel.max_closure_rounds},{fuel.max_formula_size},{fuel.max_set_size}"
            for key, gamma, phi, fuel in self.catalogue
        )

    def stream(self, seed: int):
        rng = random.Random(seed)
        size = len(self.catalogue) // self.BLOCKS
        while True:
            blocks = list(range(self.BLOCKS))
            rng.shuffle(blocks)
            for b in blocks:
                ops = list(range(b * size, (b + 1) * size))
                rng.shuffle(ops)
                yield from ops

    def execute(self, i: int) -> str:
        key, gamma, phi, fuel = self.catalogue[i]
        try:
            verdict = consequence.derives(self.cals[key], gamma, phi, fuel)
        except OntoweaveError as exc:
            return f"E:{type(exc).__name__}"
        return f"D{verdict.depth}" if verdict.is_derived else "N"


# ---------------------------------------------------------------------------
# fibre-alternation


class FibreAlternation(Workload):
    """``fibred_derives`` on cpl (+) conj, one fresh session per query.

    Each premise set pairs a non-variable CPL formula with a conjunction;
    goals come from both depth-2 corpora. Queries whose goal is a premise
    (answered at depth 0 without any closure) are left out. The README
    worked example opens the catalogue, so it recurs once per pass.
    """

    name = "fibre-alternation"
    SIZE = 24
    RSS_AT_OPS = SIZE
    FUEL = Fuel(2, 12, 8_000)
    README_QUERY = (("and(x1, x2)", "imp(x1, x3)"), "x3")

    def setup(self) -> None:
        cpl_sig, conj_sig = presets.cpl_signature(), presets.conj().sig
        left = [f.text for f in syntax.enumerate_formulas(cpl_sig, 2, 2) if not f.is_var]
        right = [f.text for f in syntax.enumerate_formulas(conj_sig, 2, 2) if not f.is_var]
        goals = [f.text for f in syntax.enumerate_formulas(cpl_sig, 2, 2)] + right
        rng = random.Random(CATALOGUE_SEED)
        self.catalogue = [self.README_QUERY]
        while len(self.catalogue) < self.SIZE:
            query = ((rng.choice(left), rng.choice(right)), rng.choice(goals))
            if query[1] not in query[0] and query not in self.catalogue:
                self.catalogue.append(query)

    def catalogue_text(self) -> str:
        return "\n".join(f"{', '.join(gamma)}\t{phi}" for gamma, phi in self.catalogue)

    def stream(self, seed: int):
        rng = random.Random(seed)
        while True:
            ops = list(range(len(self.catalogue)))
            rng.shuffle(ops)
            yield from ops

    def execute(self, i: int) -> str:
        gamma, phi = self.catalogue[i]
        # fresh presentations, as `ontoweave fibre` builds them from defs
        session = fibring.open_session(presets.cpl(), presets.conj(), self.FUEL)
        u = lambda text: parse_formula(text, session.union_sig)
        try:
            verdict = fibring.fibred_derives(session, [u(g) for g in gamma], u(phi))
        except OntoweaveError as exc:  # a bounded refusal such as CapExceeded
            return f"E:{type(exc).__name__}"
        return f"D{verdict.depth}" if verdict.is_derived else "N"


# ---------------------------------------------------------------------------
# graph-session

GRAPH_FUEL = ["--fuel-rounds", "2", "--fuel-size", "14", "--fuel-set", "20000"]
BINARY_NODES = 60

GRAPH_DEFS = """
signature CPL { bot/0; not/1; imp/2; }
signature IMP { imp/2; }
calculus cpl over CPL {
  axiom A1: imp(x1, imp(x2, x1));
  axiom A2: imp(imp(x1, imp(x2, x3)), imp(imp(x1, x2), imp(x1, x3)));
  axiom A3: imp(imp(not(x1), not(x2)), imp(x2, x1));
  axiom DS: imp(not(x1), imp(x1, x2));
  rule MP: x1, imp(x1, x2) |- x2;
  negation not;
}
calculus impc over IMP {
  axiom A1: imp(x1, imp(x2, x1));
  axiom A2: imp(imp(x1, imp(x2, x3)), imp(imp(x1, x2), imp(x1, x3)));
  rule MP: x1, imp(x1, x2) |- x2;
}
ontology efq { base cpl; onto_signature { bot/0; } axioms { imp(bot, x1); } }
ontology cpl_a { base cpl; onto_signature { } axioms { } }
ontology cpl_b { base cpl; onto_signature { } axioms { } }
ontology cpl_c { base cpl; onto_signature { } axioms { } }
ontology imp_onto { base impc; onto_signature { } axioms { } }
morphism imp_cpl : IMP -> CPL { imp/2 -> imp/2; }
splitting imp_cpl_s : IMP -> CPL { imp/2 -> imp(x1, x2); }

signature W { w/2; }
signature P1 { p1/2; }
signature P2 { p2/2; }
signature C { c/2; }
calculus wc over W { rule E1: w(x1, x2) |- x1; rule E2: w(x1, x2) |- x2; }
calculus p1c over P1 { rule E1: p1(x1, x2) |- x1; rule E2: p1(x1, x2) |- x2; }
calculus p2c over P2 { rule E1: p2(x1, x2) |- x1; rule E2: p2(x1, x2) |- x2; }
calculus cc over C { rule E1: c(x1, x2) |- x1; rule E2: c(x1, x2) |- x2; }
ontology W_node { base wc; onto_signature { w/2; } axioms { } }
ontology P1_node { base p1c; onto_signature { p1/2; } axioms { } }
ontology P2_node { base p2c; onto_signature { p2/2; } axioms { } }
ontology C_node { base cc; onto_signature { c/2; } axioms { } }
splitting w_p1 : W -> P1 { w/2 -> p1(x1, x2); }
splitting w_p2 : W -> P2 { w/2 -> p2(x1, x2); }
splitting c_p1 : C -> P1 { c/2 -> p1(x1, x2); }
splitting c_p2 : C -> P2 { c/2 -> p2(x1, x2); }
splitting c_w : C -> W { c/2 -> w(x1, x2); }

signature A { and/2; }
signature B { or/2; }
signature R { ref/2; }
calculus ac over A { rule E1: and(x1, x2) |- x1; rule I: x1, x2 |- and(x1, x2); }
calculus bc over B { rule E1: or(x1, x2) |- x1; rule I: x1, x2 |- or(x1, x2); }
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

signature N { n/2; }
calculus ne over N { rule E1: n(x1, x2) |- x1; }
calculus n0 over N { }
""" + "".join(
    f"ontology n{i:02d} {{ base {'ne' if i % 2 else 'n0'}; onto_signature {{ }} axioms {{ }} }}\n"
    for i in range(BINARY_NODES)
)

# The checked steps every session runs, in dependency order. Two of them are
# refusals that exit 1 by design: a cycle and a refuted definition link. The
# theorem links out of cpl_a re-close the same premise sets on purpose.
_NODE, _LINK = "add-node", "add-link"
CHECKED_STEPS = [
    [_NODE, "imp_onto"],
    [_NODE, "cpl_a"],
    [_NODE, "efq"],
    [_NODE, "O1"],
    [_NODE, "O2"],
    [_NODE, "O1P"],
    [_NODE, "O2P"],
    [_NODE, "O"],
    [_LINK, "theorem", "O1", "O1P"],
    [_LINK, "theorem", "O2", "O2P"],
    [_LINK, "definition", "O", "O1P", "t1"],
    [_LINK, "definition", "O", "O2P", "t2"],
    [_LINK, "theorem", "imp_onto", "cpl_a"],
    [_LINK, "definition", "imp_onto", "cpl_a", "imp_cpl"],
    [_LINK, "theorem", "cpl_a", "efq"],
    [_LINK, "theorem", "efq", "cpl_a"],  # cycle
    [_NODE, "cpl_b"],
    [_LINK, "theorem", "cpl_a", "cpl_b"],
    [_LINK, "splitting", "imp_onto", "efq", "imp_cpl_s"],
    [_LINK, "definition", "imp_onto", "efq", "imp_cpl"],  # refuted: theories differ
    [_NODE, "cpl_c"],
    [_LINK, "theorem", "cpl_a", "cpl_c"],
    [_LINK, "theorem", "cpl_b", "efq"],
    [_LINK, "theorem", "cpl_c", "efq"],
    [_NODE, "W_node"],
    [_NODE, "P1_node"],
    [_NODE, "P2_node"],
    [_NODE, "C_node"],
    [_LINK, "splitting", "W_node", "P1_node", "w_p1"],
    [_LINK, "splitting", "W_node", "P2_node", "w_p2"],
    [_LINK, "splitting", "C_node", "P1_node", "c_p1"],
    [_LINK, "splitting", "C_node", "P2_node", "c_p2"],
    [_LINK, "splitting", "C_node", "W_node", "c_w"],
    ["verify-decomposition", "W_node", "P1_node", "P2_node"],
]
INTEGRATION_DONE = CHECKED_STEPS.index([_LINK, "definition", "O", "O2P", "t2"])
CHEAP_OPS = 360
SCRIPTS = 4


def _checked_argv(step: list[str], defs: str) -> list[str]:
    if step[0] == _NODE:
        return [_NODE, "--defs", defs, "--name", step[1]]
    if step[0] == _LINK:
        argv = [_LINK, "--kind", step[1], "--from", step[2], "--to", step[3]]
        if len(step) == 5:
            argv += ["--defs", defs, "--morphism", step[4]]
        return argv
    return ["verify-decomposition", "--node", step[1], "--parts", *step[2:]]


def graph_script(script_seed: int, defs: str) -> list[list[str]]:
    """One session: the checked steps spread evenly through CHEAP_OPS cheap
    ops, which grow a graph of binary-calculus nodes and asserted links and
    query and save it. Returns the argv tails after ``--manifest``."""
    rng = random.Random(script_seed)
    per_gap = CHEAP_OPS // len(CHECKED_STEPS)
    slots: list[int | None] = []
    for j in range(len(CHECKED_STEPS)):
        gap: list[int | None] = [None] * per_gap
        gap.insert(rng.randrange(per_gap + 1), j)
        slots.extend(gap)
    slots.extend([None] * (CHEAP_OPS - per_gap * len(CHECKED_STEPS)))

    nodes: list[int] = []
    links: set[tuple[int, int]] = set()
    integration_ready = False
    script = []
    for slot in slots:
        if slot is not None:
            script.append(_checked_argv(CHECKED_STEPS[slot], defs))
            integration_ready = integration_ready or slot == INTEGRATION_DONE
            continue
        roll = rng.random()
        can_link = len(nodes) * (len(nodes) - 1) // 2 > len(links)
        if len(nodes) < BINARY_NODES and (not can_link or roll < 0.18):
            nodes.append(len(nodes))
            script.append([_NODE, "--defs", defs, "--name", f"n{nodes[-1]:02d}"])
        elif roll < 0.82:
            a, b = sorted(rng.sample(nodes, 2))
            while (a, b) in links:
                a, b = sorted(rng.sample(nodes, 2))
            links.add((a, b))
            script.append([_LINK, "--kind", "theorem", "--from", f"n{a:02d}", "--to", f"n{b:02d}", "--assert"])
        elif roll < 0.92:
            a, b = sorted(rng.sample(nodes, 2))
            script.append(["verify-refinement", "--from", f"n{a:02d}", "--to", f"n{b:02d}"])
        elif roll < 0.96 and integration_ready:
            script.append(["verify-integration", "--node", "O", "--left", "O1", "--right", "O2", "--conservative"])
        else:
            script.append(["save"])
    return script


class GraphSession(Workload):
    """``ontoweave graph`` commands run in-process through ``cli.main``
    against a manifest in a fresh directory per session.

    The catalogue is SCRIPTS recorded sessions; the stream runs them one
    after another in seeded order, each in a new directory.
    """

    name = "graph-session"
    RSS_AT_OPS = 600

    def setup(self) -> None:
        self.root = Path(tempfile.mkdtemp(prefix="graph-", dir=self.work_dir))
        self.defs = self.root / "defs.dsl"
        self.defs.write_text(GRAPH_DEFS, encoding="utf-8")
        # the defs path is fixed text so the catalogue digest is location-free
        self.scripts = [graph_script(s, "DEFS") for s in range(SCRIPTS)]
        self.sessions: list[list] = []  # [script, manifest, steps run]

    def catalogue_text(self) -> str:
        return GRAPH_DEFS + "\n".join(" ".join(argv) for s in self.scripts for argv in s)

    def _session_ops(self, script: int):
        session = [script, self.root / f"session{len(self.sessions)}" / "graph.dsl", 0]
        session[1].parent.mkdir()
        self.sessions.append(session)
        for step in range(len(self.scripts[script])):
            yield (session, step)

    def all_ops(self):
        for script in range(SCRIPTS):
            yield from self._session_ops(script)

    def stream(self, seed: int):
        rng = random.Random(seed)
        while True:
            order = list(range(SCRIPTS))
            rng.shuffle(order)
            for script in order:
                yield from self._session_ops(script)

    def execute(self, op) -> str:
        session, step = op
        script, manifest, _ = session
        session[2] = step + 1
        argv = [str(self.defs) if a == "DEFS" else a for a in self.scripts[script][step]]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["graph", "--manifest", str(manifest), *GRAPH_FUEL, *argv])
        text = out.getvalue()
        if len(text) > 160:
            text = "sha256:" + sha256_text(text)
        return f"{code}:{text}"

    def expected(self, op) -> str:
        session, step = op
        return self.records["scripts"][session[0]]["outputs"][step]

    def manifest_digest(self, manifest: Path) -> str:
        return sha256_text(manifest.read_text(encoding="utf-8"))

    @staticmethod
    def round_trips(manifest: Path) -> bool:
        data = manifest.read_bytes()
        return save_graph(load_graph(data)) == data

    def finish(self) -> list[str]:
        """Round-trip every session's manifest and compare the digest of each
        session that ran to its end. Removes the session directories."""
        notes = []
        for k, (script, manifest, steps) in enumerate(self.sessions):
            if not manifest.exists():
                continue
            if not self.round_trips(manifest):
                notes.append(f"session {k}: manifest does not round-trip")
            complete = steps == len(self.scripts[script])
            want = self.records["scripts"][script]["manifest_sha256"]
            if complete and self.manifest_digest(manifest) != want:
                notes.append(f"session {k}: final manifest differs from the record")
        shutil.rmtree(self.root, ignore_errors=True)
        return notes


WORKLOADS = {w.name: w for w in (DeriveMix, FibreAlternation, GraphSession)}
