"""The pair runner's arithmetic, on canned run outputs: no run is started."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture()
def bench_pairs(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned(ops_per_s, p50, failed=0):
    """A run.py stdout: summary lines, then the one JSON line."""
    last = {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "latency_p50_ms": {"value": p50, "unit": "ms"},
        },
    }
    return f"# workload=w seed=1\nops_per_s {ops_per_s} 1/s\n{json.dumps(last)}\n"


BETTER = {"ops_per_s": "higher", "latency_p50_ms": "lower"}


def pairs_of(bench_pairs, base, change):
    return [
        {"seed": k, "base": bench_pairs.parse_run(canned(*b)),
         "change": bench_pairs.parse_run(canned(*c))}
        for k, (b, c) in enumerate(zip(base, change))
    ]


def test_a_run_is_read_from_its_last_line(bench_pairs):
    run = bench_pairs.parse_run(canned(1900.5, 0.48, failed=2))
    assert run == {
        "correct": False,
        "attempted": 100,
        "failed": 2,
        "metrics": {"ops_per_s": 1900.5, "latency_p50_ms": 0.48},
    }


def test_quartiles_are_inclusive(bench_pairs):
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench_pairs.quartiles([1.0, 2.0]) == {"median": 1.5, "q1": 1.25, "q3": 1.75}
    assert bench_pairs.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_a_clear_gain_meets_the_claim_rule(bench_pairs):
    base = [(1800.0 + 10 * k, 0.50) for k in range(10)]
    change = [(2400.0 + 10 * k, 0.35) for k in range(9)] + [(1700.0, 0.50)]
    got = bench_pairs.summarize(pairs_of(bench_pairs, base, change), BETTER)
    ops = got["ops_per_s"]
    assert (ops["change_won"], ops["base_won"], ops["ties"]) == (9, 1, 0)
    assert ops["base"] == {"median": 1845.0, "q1": 1822.5, "q3": 1867.5}
    assert ops["change"]["median"] == 2435.0
    assert ops["median_change"] == pytest.approx(2435 / 1845 - 1)
    assert ops["meets_claim_rule"]
    # lower is better: nine pairs lower, one tie
    p50 = got["latency_p50_ms"]
    assert (p50["change_won"], p50["base_won"], p50["ties"]) == (9, 0, 1)
    assert p50["meets_claim_rule"]


def test_eight_wins_of_ten_or_a_gap_inside_the_spread_is_no_claim(bench_pairs):
    base = [(1800.0 + 100 * k, 0.5) for k in range(10)]
    eight = [(b + 1000.0 if k < 8 else b - 1.0, 0.5) for k, (b, _) in enumerate(base)]
    got = bench_pairs.summarize(pairs_of(bench_pairs, base, eight), BETTER)["ops_per_s"]
    assert (got["change_won"], got["base_won"]) == (8, 2)
    assert not got["meets_claim_rule"]
    # every pair won, by less than the base's interquartile range (450)
    close = [(b + 50.0, 0.5) for b, _ in base]
    got = bench_pairs.summarize(pairs_of(bench_pairs, base, close), BETTER)["ops_per_s"]
    assert got["change_won"] == 10 and got["base"]["q3"] - got["base"]["q1"] == 450.0
    assert not got["meets_claim_rule"]
