"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload derive-mix --seed 1 --seconds 20 --trace 0

Each measured run happens in a fresh interpreter (worker.py) with
PYTHONHASHSEED pinned and nothing else changed, because the package's
global hash-cons table and per-calculus memos survive from one query to the
next. With --trace 0 the run reports the end-to-end metrics; set-up is
repeated in SETUP_PROBES extra interpreters and reported as a median. With
--trace 1 an untraced run of half the time is followed by a traced run of
the same ops, and the per-layer metrics come from the traced one.

End-to-end times are in reference seconds: wall time corrected for the
speed of a shared host by a probe that runs beside the program (see
hostspeed.py). The summary lines also give the plain wall-clock figures.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The lines before it are a readable summary. Spans and a record of
the run go to .bench_build/perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("derive-mix", "fibre-alternation", "graph-session")
SETUP_PROBES = 5
BUDGET_S = 170.0

# The tail is read at a fixed percentile per workload, chosen so that a run
# of the configured length leaves well over ten samples beyond it; a run too
# short for that falls back down TAIL_LADDER.
TAIL_PERCENTILE = {"derive-mix": 98.0, "fibre-alternation": 75.0, "graph-session": 98.5}
TAIL_LADDER = (99.9, 99.0, 98.5, 98.0, 97.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0)


class RunFailed(Exception):
    pass


def percentile(ordered: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail(ordered: list[float], workload: str) -> tuple[float, float, int]:
    p = TAIL_PERCENTILE[workload]
    value, beyond = percentile(ordered, p)
    if beyond < 10:
        for p in TAIL_LADDER:
            value, beyond = percentile(ordered, p)
            if beyond >= 10:
                break
    return p, value, beyond


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.deadline = time.monotonic() + BUDGET_S

    def spawn(self, mode: str, *extra: str) -> tuple[float, dict]:
        a = self.args
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", a.workload, "--seed", str(a.seed), "--mode", mode,
            "--expected", str(a.expected), "--work-dir", str(WORK), *extra,
        ]
        env = dict(os.environ, PYTHONHASHSEED="0")
        started = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - started),
            )
        except subprocess.TimeoutExpired as exc:
            raise RunFailed(f"{mode} run did not finish in time") from exc
        if proc.returncode != 0:
            raise RunFailed(f"{mode} run exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return started, json.loads(proc.stdout.strip().splitlines()[-1])

    def end_to_end(self) -> tuple[dict, dict, list[str]]:
        a = self.args
        setups, wall_setups = [], []
        for _ in range(SETUP_PROBES):
            started, probe = self.spawn("setup")
            wall_setups.append(probe["first_op"] - started - probe["setup_probe_s"])
            setups.append(wall_setups[-1] * probe["setup_factor"])
        started, run = self.spawn("measure", "--seconds", str(a.seconds))
        wall_setups.append(run["first_op"] - started - run["setup_probe_s"])
        setups.append(wall_setups[-1] * run["setup_factor"])
        ordered = sorted(run["latencies"])
        p, tail_value, beyond = tail(ordered, a.workload)
        ops = run["ops"]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (ops / run["ref_wall"], "1/s"),
            "latency_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
            "latency_tail_ms": (tail_value * 1e3, "ms"),
            "peak_rss_mb": (run["rss_kib"] / 1024, "MiB"),
        }
        walls = sorted(run["wall_latencies"])
        notes = [
            "times are reference seconds (hostspeed.py); host probe median "
            f"{run['probe_median_s'] * 1e3:.4f} ms against {hostspeed.REF_S * 1e3:g} ms",
            f"wall clock: setup_s {statistics.median(wall_setups):.4f}, "
            f"ops_per_s {ops / run['wall']:.4f}, latency_p50_ms {statistics.median(walls) * 1e3:.4f}, "
            f"latency_tail_ms {tail(walls, a.workload)[1] * 1e3:.4f}",
            f"setup_s: median of {len(setups)} set-ups",
            f"peak_rss_mb: ru_maxrss after the first {run['rss_ops']} ops",
            f"latency_tail_ms: p{p:g}, {beyond} samples beyond it, n={ops}",
            f"error_rate: {run['failed'] / ops:.6g} ({run['failed']} failed of {ops} attempted)",
        ] + run["failures"]
        return run, metrics, notes

    def per_layer(self) -> tuple[dict, dict, list[str]]:
        a = self.args
        # half the run untraced, then the same ops traced: the pair gives the
        # tracing overhead and keeps a traced run as long as an untraced one
        _, plain = self.spawn("measure", "--seconds", str(a.seconds / 2))
        spans = WORK / "spans" / f"{a.workload}-seed{a.seed}.tsv.gz"
        _, traced = self.spawn("trace", "--ops", str(plain["ops"]), "--spans", str(spans))
        metrics = {name: tuple(pair) for name, pair in traced["per_layer"].items()}
        metrics["trace.overhead_s"] = (traced["wall"] - plain["wall"], "s")
        run = {
            "ops": plain["ops"] + traced["ops"],
            "failed": plain["failed"] + traced["failed"],
            "failures": plain["failures"] + traced["failures"],
        }
        notes = [
            f"traced {traced['ops']} ops in {traced['wall']:.3f} s, untraced in {plain['wall']:.3f} s",
            f"spans written to {spans.relative_to(ROOT)}",
        ] + run["failures"]
        return run, metrics, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expected", type=Path, default=HERE / "expected",
                    help="directory of expected-output records")
    args = ap.parse_args()
    if not (ROOT / "src" / "ontoweave" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'ontoweave'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "load1": os.getloadavg()[0],
    }
    runner = Runner(args)
    try:
        run, metrics, notes = runner.per_layer() if args.trace else runner.end_to_end()
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6f} {unit}")
    for note in notes:
        print(f"# {note}")
    record = {"meta": meta, "metrics": metrics, "notes": notes}
    (WORK / "runs").mkdir(exist_ok=True)
    out = WORK / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["ops"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
