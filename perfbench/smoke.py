"""A seconds-long smoke run of the harness.

    python3 perfbench/smoke.py

For every workload it runs run.py for two seconds untraced and traced and
checks that each metric BENCHMARK.json names is printed with its unit and
that no op failed. It then corrupts the expected record of the stream's
first op in a copy of the records and checks that the run reports a failed
op, i.e. an error rate above 0. Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the src path)

SEED = 1
SECONDS = "2"


def run(workload: str, trace: int, expected: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", SECONDS, "--trace", str(trace), "--expected", str(expected)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def corrupt_first_op(workload: str, records: Path, tmp: Path) -> None:
    """Alter the record the stream of SEED checks first."""
    w = workloads.WORKLOADS[workload](records, tmp)
    w.setup()
    op = next(w.stream(SEED))
    path = records / f"{workload}.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    if workload == "graph-session":
        session, step = op
        data["scripts"][session[0]]["outputs"][step] += " (corrupted)"
    else:
        data["outputs"][op] += " (corrupted)"
    path.write_text(json.dumps(data), encoding="utf-8")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    work = ROOT / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        records = Path(tmp) / "expected"
        shutil.copytree(HERE / "expected", records)
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                result = run(workload, trace, HERE / "expected")
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                if got != wanted[trace]:
                    problems.append(f"{workload} trace={trace}: metrics or units differ from BENCHMARK.json")
                if result["failed"] or not result["correct"]:
                    problems.append(f"{workload} trace={trace}: {result['failed']} ops failed")
                if trace == 0:
                    print(f"{workload}: attempted={result['attempted']} failed={result['failed']} "
                          f"error_rate={result['failed'] / result['attempted']:g}")
                    for name, m in result["metrics"].items():
                        print(f"  {name:<16} {m['value']:>14.6f} {m['unit']}")
            corrupt_first_op(workload, records, Path(tmp))
            result = run(workload, 0, records)
            rate = result["failed"] / result["attempted"]
            print(f"{workload} with one corrupted record: error_rate={rate:g}")
            if rate <= 0 or result["correct"]:
                problems.append(f"{workload}: a corrupted record went unnoticed")
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
