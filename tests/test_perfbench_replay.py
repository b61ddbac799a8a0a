"""Replay part of each benchmark workload's records in-process, and check
that every name the benchmark's tracer wraps still exists.

Graph-session scripts 0 and 1, then 2 and 3, replay whole, back to back in
one process: every op's output and each final manifest's sha256 must equal
perfbench/expected/graph-session.json, so the parse- and validate-once paths
of the CLI and the manifest writer are held byte-identical to all four
records on every test run, the second script of each pair starting warm.
Each final manifest is then loaded as text, past the save slot, and saved
again to the recorded sha256, so the manifest parser is held to all four
records too.
Derive-mix replays every 15th of its 300 catalogue blocks of 20 queries:
400 queries, among them bounded negatives at both fuels and ones where the
set cap binds at the CLI default fuel. Fibre-alternation replays its first
four queries, the README query first, then replays them again, so that
every query is answered from fibring's query memo: no side closure runs
and no member is mapped back. All are checked against their records.
A traced replay installs the benchmark's tracer and replays graph-session
script 0 and fibre-alternation's first four queries from an empty memo:
every op must still equal its record, and every checker and engine span
must be entered, so a checker that gets bypassed shows as zero calls.
Every recorded derive-mix D is checked against an exact decider of its
logic.
perfbench/ is only read.
"""

import importlib
import importlib.util
import itertools
import sys
from collections import Counter
from pathlib import Path

import pytest

from ontoweave import fibring
from ontoweave.devgraph import load_graph, save_graph
from conftest import unsound

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(monkeypatch, name):
    # no bytecode is written beside the benchmark's sources
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def replay_back_to_back(tmp_path, monkeypatch, first, second):
    """Replay two graph-session scripts whole in one process, each in a new
    directory, the second starting with the tables and the save slot the
    first one's last manifest left."""
    workloads = load_perfbench(monkeypatch, "workloads")
    session = workloads.GraphSession(workloads.EXPECTED_DIR, tmp_path)
    session.setup()
    session.load_expected()
    ops = [*session._session_ops(first), *session._session_ops(second)]
    got = [session.execute(op) for op in ops]
    assert got == [session.expected(op) for op in ops]
    ran = [(first, len(session.scripts[first])), (second, len(session.scripts[second]))]
    assert [(script, steps) for script, _, steps in session.sessions] == ran
    for script, manifest, _ in session.sessions:
        want = session.records["scripts"][script]["manifest_sha256"]
        assert session.manifest_digest(manifest) == want
        parsed = load_graph(manifest.read_text(encoding="utf-8"))
        assert workloads.sha256_text(save_graph(parsed).decode("utf-8")) == want
    assert session.finish() == []


def test_graph_session_scripts_0_and_1_replay_back_to_back(tmp_path, monkeypatch):
    replay_back_to_back(tmp_path, monkeypatch, 0, 1)


def test_graph_session_scripts_2_and_3_replay_back_to_back(tmp_path, monkeypatch):
    replay_back_to_back(tmp_path, monkeypatch, 2, 3)


DERIVE_MIX_SPREAD = [i for block in range(0, 300, 15) for i in range(20 * block, 20 * block + 20)]


@pytest.mark.parametrize(
    "name, ops, passes",
    [("derive-mix", DERIVE_MIX_SPREAD, 1), ("fibre-alternation", range(4), 2)],
    ids=["derive-mix", "fibre-alternation"],
)
def test_catalogue_ops_replay_their_records(tmp_path, monkeypatch, name, ops, passes):
    workloads = load_perfbench(monkeypatch, "workloads")
    workload = workloads.WORKLOADS[name](workloads.EXPECTED_DIR, tmp_path)
    workload.setup()
    workload.load_expected()
    side_closures, mapped_back = [], []
    side_closure, substitute_back = fibring._side_closure, fibring.substitute_back

    def counted_side_closure(*args):
        side_closures.append(args[1])
        return side_closure(*args)

    def counted(t, phi):
        mapped_back.append(phi)
        return substitute_back(t, phi)

    for pass_no in range(passes):
        assert [workload.execute(op) for op in ops] == [workload.expected(op) for op in ops]
        # a repeated query is a memo hit: no side closure runs
        if pass_no == 0:
            monkeypatch.setattr(fibring, "_side_closure", counted_side_closure)
            monkeypatch.setattr(fibring, "substitute_back", counted)
    assert side_closures == mapped_back == []


def test_every_recorded_derived_answer_follows_in_its_logic(tmp_path, monkeypatch):
    # cpl by truth tables, the implication fragment by the intuitionistic
    # decider: both are exact, so a recorded D that fails one is unsound
    workloads = load_perfbench(monkeypatch, "workloads")
    workload = workloads.WORKLOADS["derive-mix"](workloads.EXPECTED_DIR, tmp_path)
    workload.setup()
    workload.load_expected()
    derived = Counter()
    for op, (key, gamma, phi, _) in enumerate(workload.catalogue):
        if workload.expected(op).startswith("D"):
            name = {"cpl": "cpl", "imp": "implication_fragment"}[key]
            assert unsound(name, gamma, [phi]) == [], (op, workload.expected(op))
            derived[name] += 1
    assert derived["cpl"] and derived["implication_fragment"]


def test_every_traced_name_resolves(monkeypatch):
    """--trace 1 wraps these by name; the tracer is not installed here."""
    tracing = load_perfbench(monkeypatch, "tracing")
    mods = {m: importlib.import_module(f"ontoweave.{m}") for m in tracing.MODULES}
    for home, func, _ in tracing.FUNCTIONS:
        assert callable(getattr(mods[home], func)), (home, func)
    for home, cls, meth, _ in tracing.METHODS:
        assert callable(getattr(getattr(mods[home], cls), meth)), (home, cls, meth)
    assert callable(getattr(mods["cli"], "load_graph"))
    # counted where fibring looks it up
    check = getattr(mods["morphisms"], "is_back_translatable")
    assert getattr(mods["fibring"], "is_back_translatable") is check


# spans a traced replay must enter; a bypassed checker reads zero calls
REPLAYED_SPANS = (
    "consequence.weaker_than",
    "ontology.ecsy",
    "devgraph.splitting_check",
    "consequence.closure",
    "fibring.side_closure",
    "morphisms.translate",
)


def test_a_traced_replay_enters_every_checker(tmp_path, monkeypatch, cold_memo):
    tracing = load_perfbench(monkeypatch, "tracing")
    workloads = load_perfbench(monkeypatch, "workloads")
    mods = {m: importlib.import_module(f"ontoweave.{m}") for m in tracing.MODULES}
    # register every binding the tracer replaces, so teardown restores it
    for _, func, _ in tracing.FUNCTIONS:
        for mod in mods.values():
            if hasattr(mod, func):
                monkeypatch.setattr(mod, func, getattr(mod, func))
    for home, cls, meth, _ in tracing.METHODS:
        owner = getattr(mods[home], cls)
        monkeypatch.setattr(owner, meth, getattr(owner, meth))
    monkeypatch.setattr(mods["fibring"], "is_back_translatable", mods["fibring"].is_back_translatable)
    monkeypatch.setattr(mods["cli"], "load_graph", mods["cli"].load_graph)
    tracer = tracing.Tracer()
    tracer.install()

    session = workloads.GraphSession(workloads.EXPECTED_DIR, tmp_path)
    session.setup()
    session.load_expected()
    ops = list(itertools.islice(session.all_ops(), len(session.scripts[0])))
    assert [session.execute(op) for op in ops] == [session.expected(op) for op in ops]
    assert session.finish() == []
    fibre = workloads.FibreAlternation(workloads.EXPECTED_DIR, tmp_path)
    fibre.setup()
    fibre.load_expected()
    assert [fibre.execute(op) for op in range(4)] == [fibre.expected(op) for op in range(4)]

    metrics = tracer.metrics()
    assert [name for name in REPLAYED_SPANS if not metrics[f"{name}.calls"]] == []
