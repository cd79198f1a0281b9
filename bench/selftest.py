"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json with ``--tiny``, untraced and traced,
and fails unless every run emits exactly the metrics BENCHMARK.json names,
with their units, every answer check passes, and the traces name every layer
function in ``tracer.LAYER_FUNCTIONS`` with each one called by at least one
workload.  It also checks that the benchmark exits with an error, printing
no result, when the blcalc sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIMEOUT_S = 300

sys.path.insert(0, str(BENCH))
from tracer import LAYER_FUNCTIONS  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S)


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    called = set()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            where = f"{workload} --trace {trace}"
            proc = run(ROOT, workload, trace)
            expect(proc.returncode == 0, f"{where} exited {proc.returncode}: {proc.stderr[-500:]}")
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{where} result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{where} checks failed: {proc.stderr[-500:]}")
            expect({m: v["unit"] for m, v in result["metrics"].items()}
                   == {m["name"]: m["unit"] for m in listed},
                   f"{where} metrics differ from BENCHMARK.json")
            record = next(json.loads(line)["run"] for line in lines if line.startswith('{"run"'))
            expect(record["seed"] == 7 and record["environment"]["python"],
                   f"{where} does not record seed and environment")
            if trace:
                functions = json.loads((ROOT / record["trace_file"]).read_text())["functions"]
                expect(set(functions) == set(LAYER_FUNCTIONS), f"{where} trace names")
                called |= {name for name, s in functions.items() if s["calls"]}
            print(f"ok {where}: {result['attempted']} queries")
    expect(called == set(LAYER_FUNCTIONS),
           f"never called: {sorted(set(LAYER_FUNCTIONS) - called)}")
    print(f"ok all {len(LAYER_FUNCTIONS)} layer functions traced")

    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "a run without the blcalc sources must fail without a result")
    print("ok a run without sources fails")


if __name__ == "__main__":
    main()
