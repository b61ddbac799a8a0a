"""Replay one recorded graph-session script of the benchmark in-process.

Every op's output and the final manifest's sha256 must equal the records in
perfbench/expected/graph-session.json, so the parse-once path of the CLI is
held byte-identical on every test run. perfbench/ is only read.
"""

import importlib.util
import itertools
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads(monkeypatch):
    # no bytecode is written beside the benchmark's sources
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_graph_session_script_0_replays_its_record(tmp_path, monkeypatch):
    workloads = load_workloads(monkeypatch)
    session = workloads.GraphSession(workloads.EXPECTED_DIR, tmp_path)
    session.setup()
    session.load_expected()
    steps = len(session.scripts[0])
    # all_ops runs script 0 first, each script in a new directory
    ops = list(itertools.islice(session.all_ops(), steps))
    got = [session.execute(op) for op in ops]
    assert got == [session.expected(op) for op in ops]
    (script, manifest, ran), = session.sessions
    assert (script, ran) == (0, steps)
    want = session.records["scripts"][0]["manifest_sha256"]
    assert session.manifest_digest(manifest) == want
    assert session.finish() == []
