"""Self-check of the benchmark's determinism.

    python3 perfbench/check_determinism.py [workload ...]

For every workload, the same seed must generate byte-identical configs
and a different seed different ones.  For each workload named on the
command line (default: recovery and kernels; frontier takes about 20 s
a run), two runs with one seed must report the same record digest and a
run with another seed a different one.  Exits 1 on the first mismatch.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import JOBS  # noqa: E402


def configs(workload: str, seed: int) -> str:
    return json.dumps([job.config for job in JOBS[workload](seed)], sort_keys=True)


def digest(workload: str, seed: int) -> str:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    info_line = out.stdout.strip().splitlines()[-2]
    return json.loads(info_line.removeprefix("info "))["digest"]


def main(workloads) -> int:
    failures = []
    for workload in JOBS:
        if configs(workload, 1) != configs(workload, 1):
            failures.append(f"{workload}: seed 1 gave two different inputs")
        if configs(workload, 1) == configs(workload, 2):
            failures.append(f"{workload}: seeds 1 and 2 gave the same inputs")
    for workload in workloads:
        first, again, other = digest(workload, 1), digest(workload, 1), digest(workload, 2)
        print(f"{workload}: seed 1 {first[:16]} / {again[:16]}, seed 2 {other[:16]}")
        if first != again:
            failures.append(f"{workload}: seed 1 gave two different digests")
        if first == other:
            failures.append(f"{workload}: seeds 1 and 2 gave the same digest")
    for failure in failures:
        print(f"FAIL {failure}")
    print("determinism: " + ("FAIL" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["recovery", "kernels"]))
