"""Smoke test of the benchmark: both workloads at a tiny size, end to end.

Runs ``run.py`` untraced and traced on small corpora with every output
check, asserts a correct result line whose metrics match ``BENCHMARK.json``,
and asserts that a copy of the benchmark without the program's sources
exits non-zero without a result.  Run from the repository root:

    python3 clibench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SIZES = {"planted": 100, "longtail": 200}


def run(script: Path, workload: str, trace: int, users: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), "--workload", workload, "--seed", "5",
                           "--seconds", "1", "--trace", str(trace), "--users", str(users)],
                          capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert {w["name"] for w in spec["workloads"]} == set(SIZES)
    for workload, users in SIZES.items():
        for trace in (0, 1):
            proc = run(HERE / "run.py", workload, trace, users)
            assert proc.returncode == 0, proc.stderr[-2000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["correct"], proc.stdout[-3000:]
            assert result["attempted"] >= 1 and result["failed"] == 0, result
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want[trace], sorted(set(got) ^ set(want[trace]))
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values()), result
            print(f"ok {workload} trace={trace} users={users}")

    bare = ROOT / ".clibench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare / HERE.name / "run.py", "planted", 0, SIZES["planted"])
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    shutil.rmtree(bare)
    print("ok: without the program's sources the benchmark exits non-zero, printing no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
