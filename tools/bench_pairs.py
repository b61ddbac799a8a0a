"""Run one benchmark workload in alternating pairs on two revisions, and
write the comparison to BENCH_<workload>.json.

    python3 tools/bench_pairs.py --workload graph-session --base HEAD~1 --change HEAD \\
        --pairs 10 --seconds 30 --first-seed 11

Each revision is exported with `git archive` into its own temporary
directory, and each run is that tree's own, unchanged
`perfbench/run.py --workload W --seed S --seconds T --trace 0`. Pair k runs
both sides at seed first_seed + k; the base runs first in even pairs and the
change first in odd ones, so a drift in the host's speed falls on both
sides alike. The output file holds both revisions, the host, every run's
metrics, and per metric each side's median and quartiles and how many
pairs each side won. A metric meets the claim rule when the change won at
least nine tenths of the pairs, ties counting for neither, and its median
is better than the base's by more than the distance between the base's
quartiles. Stdlib only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(revision: str, into: Path) -> None:
    """The files of revision, as committed, under into."""
    blob = subprocess.run(
        ["git", "archive", revision], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(into, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One end-to-end run of tree's benchmark: its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{tree.name} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}"
        )
    return parse_run(proc.stdout)


def parse_run(stdout: str) -> dict:
    """correct, failed and each metric's value, from run.py's last line."""
    last = json.loads(stdout.strip().splitlines()[-1])
    return {
        "correct": last["correct"],
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": {name: m["value"] for name, m in last["metrics"].items()},
    }


def quartiles(values: list[float]) -> dict:
    """Median and the inclusive first and third quartiles."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric, each side's quartiles, the pairs each side won and
    whether the change meets the claim rule; better maps each metric to
    "higher" or "lower"."""
    summary = {}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = [sign * (c - b) for b, c in zip(base, change)]
        b, c = quartiles(base), quartiles(change)
        change_won = sum(w > 0 for w in wins)
        gain = sign * (c["median"] - b["median"])
        summary[name] = {
            "better": direction,
            "base": b,
            "change": c,
            "change_won": change_won,
            "base_won": sum(w < 0 for w in wins),
            "ties": sum(w == 0 for w in wins),
            "median_change": c["median"] / b["median"] - 1 if b["median"] else None,
            "meets_claim_rule": change_won >= math.ceil(0.9 * len(pairs))
            and gain > b["q3"] - b["q1"],
        }
    return summary


def host() -> dict:
    return {
        "node": platform.node(),
        "system": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "load1_at_start": os.getloadavg()[0],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--base", required=True, help="git revision of the parent")
    ap.add_argument("--change", required=True, help="git revision of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", type=Path, help="default: BENCH_<workload>.json in the repo root")
    args = ap.parse_args()
    sides = {side: git("rev-parse", "--verify", f"{getattr(args, side)}^{{commit}}")
             for side in ("base", "change")}
    result = {
        "workload": args.workload,
        "command": f"perfbench/run.py --workload {args.workload} --seed S "
                   f"--seconds {args.seconds} --trace 0",
        "host": host(),
        "base": {"revision": sides["base"], "src_tree": git("rev-parse", f"{sides['base']}:src")},
        "change": {"revision": sides["change"],
                   "src_tree": git("rev-parse", f"{sides['change']}:src")},
        "pairs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in sides}
        for side, tree in trees.items():
            export(sides[side], tree)
        bench = json.loads((trees["base"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        better = {m["name"]: m["better"] for m in bench["end_to_end"]}
        for k in range(args.pairs):
            seed = args.first_seed + k
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, seed, args.seconds)
            result["pairs"].append(pair)
            print(f"pair {k} seed {seed}: " + ", ".join(
                f"{side} {pair[side]['metrics']['ops_per_s']:.1f} ops/s" for side in order),
                file=sys.stderr)
    result["runs_not_correct"] = {
        side: sum(not p[side]["correct"] for p in result["pairs"]) for side in sides
    }
    result["summary"] = summarize(result["pairs"], better)
    out = args.out or ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
