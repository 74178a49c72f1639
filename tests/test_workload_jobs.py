"""The benchmark's optimizer jobs run clean at many seeds.

perfbench/run.py feeds each job config of a workload through
``cli.parse_config`` -> ``cli.run`` -> ``report_to_json``/``emit_csv``,
after one warm-up recovery, and checks every report.  The configs differ
by seed through the translated states, so a fault that depends on the
input shows at some seeds only.  This runs the ``recovery`` and
``frontier`` jobs, and the warm-up, at fixed seeds, with the benchmark's
own checks.
"""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import frontier_jobs, recovery_jobs  # noqa: E402

from asymmbench.cli import parse_config, run  # noqa: E402
from asymmbench.report import emit_csv, report_to_json  # noqa: E402

SEEDS = (7, 1001, 3, 4242, 99, 31337, 53001, 2**31 - 1)
# run.py's warm-up: |+> recovered from I/2, where sigma01 = 0.
WARMUP = {
    "schema_version": 1,
    "experiment": "irrev",
    "target": {"rows": 2, "cols": 2, "re": [0.5, 0, 0, 0.5], "im": [0, 0, 0, 0]},
    "optimizer": {"max_iter": 3, "restarts": 1},
}


def run_config(tmp_path, name, config):
    """The report, its JSON and its CSV, as the benchmark makes them."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    report = run(parse_config(path))
    text, csv_text = report_to_json(report), emit_csv(report)
    assert [a["name"] for a in report.assertions if not a["passed"]] == []
    assert csv_text.count("\r\n") == len(report.records) + 1
    assert "wall_time_s" in json.loads(text)
    return report


def test_warmup(tmp_path):
    run_config(tmp_path, "warmup", WARMUP)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("jobs", [recovery_jobs, frontier_jobs], ids=["recovery", "frontier"])
def test_jobs(tmp_path, jobs, seed):
    for job in jobs(seed):
        report = run_config(tmp_path, job.name, job.config)
        if job.check is not None:
            assert job.check(report) == []
        if job.irrev is not None:
            job.irrev(report)
