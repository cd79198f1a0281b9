"""Record the golden exit codes and stdout of the README CLI examples.

Run from the repository root on a commit whose CLI output is trusted:

    python3 bench/record_golden.py

It rewrites bench/golden.json, which the ``cli`` workload checks against.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / "bench") as tmp:
        commands = []
        for template, argv in zip(workloads.README_COMMANDS, workloads.readme_commands(Path(tmp))):
            code, out = workloads.run_cli(argv)
            commands.append({"argv": list(template), "exit": code, "stdout": out})
    workloads.GOLDEN_PATH.write_text(json.dumps({"commands": commands}, indent=1) + "\n")
    print(f"wrote {len(commands)} commands to {workloads.GOLDEN_PATH}")


if __name__ == "__main__":
    main()
