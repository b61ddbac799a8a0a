"""Record the expected output of every catalogue op at the current commit.

    python3 perfbench/record.py                 # all workloads
    python3 perfbench/record.py derive-mix      # one workload

Writes perfbench/expected/<workload>.json. Rerun it only in a change that
alters verdicts or CLI output on purpose, and say why in that change; the
benchmark otherwise counts every differing output as a failed op.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs the src path)


def record(name: str, work_dir: Path) -> dict:
    w = workloads.WORKLOADS[name](workloads.EXPECTED_DIR, work_dir)
    w.setup()
    data = {"catalogue_sha256": workloads.sha256_text(w.catalogue_text())}
    if name != "graph-session":
        data["outputs"] = [w.execute(op) for op in w.all_ops()]
        return data
    outputs: dict[int, list[str]] = {}
    for op in w.all_ops():
        outputs.setdefault(op[0][0], []).append(w.execute(op))
    data["scripts"] = []
    for script, manifest, _ in w.sessions:
        if not w.round_trips(manifest):
            raise SystemExit(f"script {script}: manifest does not round-trip")
        data["scripts"].append(
            {"outputs": outputs[script], "manifest_sha256": w.manifest_digest(manifest)}
        )
    return data


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # record under the same interpreter settings the benchmark measures with
        os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, PYTHONHASHSEED="0"))
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    work = HERE.parent / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    for name in names:
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            data = record(name, Path(tmp))
        path = workloads.EXPECTED_DIR / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
        print(f"recorded {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
