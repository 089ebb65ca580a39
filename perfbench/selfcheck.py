"""Self-check of the benchmark itself; takes about a minute.

Run from the repository root::

    python3 perfbench/selfcheck.py

For every workload in BENCHMARK.json it makes one very short untraced run
and one traced run, on two seeds other than the default, and checks that
each ends in a result line with exactly the metrics and units that
BENCHMARK.json names, no failed op, and exit code 0.  Last, it checks
that the benchmark refuses to run, exits nonzero and prints no result in
a directory that holds only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

SECONDS = "1"
SEEDS = {0: "3", 1: "4"}  # trace -> seed


def run(cwd: str, workload: str, seed: str, trace: int) -> subprocess.CompletedProcess:
    with open(os.path.join(cwd, "BENCHMARK.json")) as handle:
        command = json.load(handle)["command"]
    return subprocess.run(
        command + ["--workload", workload, "--seed", seed, "--seconds", SECONDS,
                   "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(done, expected: dict[str, str]) -> list[str]:
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        problems.append(f"metrics missing {missing}, extra {extra}, wrong unit {wrong}")
    return problems


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, seed in SEEDS.items():
            problems = check_result(run(root, workload, seed, trace), expected[trace])
            failures += bool(problems)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload} seed={seed} trace={trace}: {status}")

    bare = tempfile.mkdtemp(prefix=".selfcheck-", dir=os.path.join(root, "perfbench"))
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(root, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns(".*", "__pycache__"))
        done = run(bare, bench["workloads"][0]["name"], "1", 0)
        refused = done.returncode != 0 and '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare)
    failures += not refused
    print(f"bare directory: {'refused as expected' if refused else 'FAIL: ran without sources'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
