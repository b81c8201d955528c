"""Self-test of the benchmark, on small cases that take seconds.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that

1. the end-to-end mode, on a smoke build at (n, d) = (6, 3), prints as its
   last line the result object with every ``end_to_end`` metric of
   BENCHMARK.json in its unit, and that no operation fails;
2. two traced runs of the smoke build, and two of a certify batch at
   n = 16, report every ``per_layer`` metric and identical exact counts;
3. the benchmark exits with a nonzero code and prints no result in a
   directory that holds only BENCHMARK.json and the benchmark's files.

It also prints, as information, where the exact counts differ from those
recorded at the seed commit in reference.json.  Exit code 0 means every
check passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from layers import EXACT_COUNTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1
TIMEOUT_S = 180


def run_bench(cwd: Path, workload: str, trace: int, seconds: float = 1):
    """Run the benchmark in a fresh process: (exit code, last stdout line)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )  # fmt: skip
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def check_result(line: str, declared: list[dict]) -> tuple[dict, list[str]]:
    problems = []
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys are {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"operations failed: {result.get('failed')} of {result.get('attempted')}")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in declared):
        problems.append(f"metric names {sorted(metrics)} differ from BENCHMARK.json")
    for m in declared:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"metric {m['name']} reads {got}")
    return metrics, problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seed_counts = json.loads((HERE / "reference.json").read_text())["seed_counts"]
    problems = []

    code, line = run_bench(ROOT, "smoke-n6-d3", trace=0)
    if code != 0:
        problems.append(f"end-to-end smoke run exited {code}")
    else:
        problems += check_result(line, spec["end_to_end"])[1]

    for workload in ("smoke-n6-d3", "certify-n16-d3"):
        counts = []
        for _ in range(2):
            code, line = run_bench(ROOT, workload, trace=1)
            if code != 0:
                problems.append(f"traced {workload} exited {code}")
                break
            metrics, found = check_result(line, spec["per_layer"])
            problems += found
            counts.append({k: metrics[k]["value"] for k in EXACT_COUNTS if k in metrics})
        if len(counts) == 2 and counts[0] != counts[1]:
            problems.append(f"exact counts of {workload} differ between runs: {counts}")
        if counts:
            recorded = seed_counts[f"{workload} seed {SEED}"]
            for name in EXACT_COUNTS:
                if counts[0].get(name) != recorded.get(name):
                    print(f"{workload}: {name} is {counts[0].get(name)}, "
                          f"{recorded.get(name)} at the seed commit")  # fmt: skip

    work = ROOT / ".perfbench-work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        code, line = run_bench(bare, "smoke-n6-d3", trace=0)
        if code == 0 or line.startswith("{"):
            problems.append(f"without src/ the benchmark exited {code} and printed {line!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass

    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
