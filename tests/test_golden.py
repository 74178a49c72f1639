"""Golden outputs: the schema and seeded reports, byte for byte.

The files under tests/data hold the `asymmbench schema` output and, for
each case below, the report JSON (without the wall-time field) and the
records CSV of a seed-7 run.  A refactor that keeps the numbers keeps
these files; a change that moves any digit has to update them and say
why.
"""
import json
import math
from pathlib import Path

import pytest

from asymmbench.cli import main, parse_config, run
from asymmbench.experiments import EXPERIMENTS
from asymmbench.report import emit_csv, report_to_json

DATA = Path(__file__).parent / "data"
HALF = {"rows": 2, "cols": 2, "re": [0.5, 0.0, 0.0, 0.5], "im": [0.0, 0.0, 0.0, 0.0]}
# The pure state (|0> + e^{0.7i}|1>)/sqrt(2), whose top eigenvector the
# tradeoff runner takes up to a phase.
PHASED_PLUS = {
    "rows": 2,
    "cols": 2,
    "re": [0.5, 0.5 * math.cos(0.7), 0.5 * math.cos(0.7), 0.5],
    "im": [0.0, -0.5 * math.sin(0.7), 0.5 * math.sin(0.7), 0.0],
}
# A qutrit with spectrum (0, 1, 2): an S' larger than the qubit Q.
QUTRIT = {"dim": 3, "spectrum": [0, 1, 2]}
ZERO = {"rows": 2, "cols": 2, "re": [1.0, 0.0, 0.0, 0.0], "im": [0.0, 0.0, 0.0, 0.0]}
# A qubit with spectrum (0, 1) in the Hadamard eigenbasis: its generator
# (I - X)/2 is derived from the basis, not diagonal.
HADAMARD_QUBIT = {
    "dim": 2,
    "spectrum": [0, 1],
    "eigenbasis": {
        "rows": 2,
        "cols": 2,
        "re": [math.sqrt(0.5), math.sqrt(0.5), math.sqrt(0.5), -math.sqrt(0.5)],
        "im": [0.0, 0.0, 0.0, 0.0],
    },
}

GOLDEN_CASES = {
    "nonadditivity": {"experiment": "nonadditivity"},
    "cloner": {"experiment": "cloner"},
    "lemma8": {"experiment": "lemma8", "trials": 300},
    "ki": {"experiment": "ki"},
    "complementarity_identity_prepare": {
        "experiment": "complementarity",
        "mode": "identity_prepare",
    },
    "complementarity_move": {"experiment": "complementarity", "mode": "move"},
    "complementarity_cloner": {"experiment": "complementarity", "mode": "cloner"},
    "irrev": {
        "experiment": "irrev",
        "target": HALF,
        "optimizer": {"max_iter": 40, "restarts": 1},
    },
    "no_broadcast": {
        "experiment": "no_broadcast",
        "lambda_schedule": [0.0, 16.0],
        "optimizer": {"max_iter": 20, "restarts": 1},
    },
    "no_broadcast_qutrit": {
        "experiment": "no_broadcast",
        "system_s_out": QUTRIT,
        "lambda_schedule": [0.0, 16.0],
        "optimizer": {"max_iter": 20, "restarts": 1},
    },
    "tradeoff": {
        "experiment": "tradeoff",
        "t_grid": [1.0],
        "lambda_schedule": [0.0],
        "optimizer": {"max_iter": 20, "restarts": 1},
    },
    "degradation": {"experiment": "degradation", "optimizer": {"max_iter": 20, "restarts": 1}},
    "tradeoff_phased": {
        "experiment": "tradeoff",
        "state": PHASED_PLUS,
        "t_grid": [1.0],
        "lambda_schedule": [0.0],
        "optimizer": {"max_iter": 20, "restarts": 1},
    },
    "degradation_hadamard": {
        "experiment": "degradation",
        "state": ZERO,
        "system_q": HADAMARD_QUBIT,
        "system_s": HADAMARD_QUBIT,
        "optimizer": {"max_iter": 20, "restarts": 1},
    },
    # The defaults: the t = 3pi/4, lambda = 0 tradeoff row and the repeated
    # lambda >= 1 rows are pinned here.
    "tradeoff_default": {"experiment": "tradeoff"},
    "no_broadcast_default": {"experiment": "no_broadcast"},
}

# One small config per registered experiment, for the column check.
SMALL_CASES = {
    **{
        name: GOLDEN_CASES[name]
        for name in (
            "nonadditivity", "cloner", "ki", "irrev", "no_broadcast", "tradeoff", "degradation"
        )
    },
    "lemma8": {"experiment": "lemma8", "trials": 20},
    "complementarity": GOLDEN_CASES["complementarity_identity_prepare"],
}


def run_case(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema_version": 1, "seed": 7, **payload}))
    return run(parse_config(path))


def report_text(report) -> str:
    body = json.loads(report_to_json(report))
    body.pop("wall_time_s")
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def test_schema_output(capsys):
    assert main(["schema"]) == 0
    assert capsys.readouterr().out == (DATA / "schema.json").read_text()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_report_and_csv(tmp_path, name):
    report = run_case(tmp_path, GOLDEN_CASES[name])
    assert report_text(report) == (DATA / f"{name}.report.json").read_text()
    assert emit_csv(report) == (DATA / f"{name}.records.csv").read_bytes().decode()


def test_default_tradeoff_rows_converge(tmp_path):
    report = run_case(tmp_path, GOLDEN_CASES["tradeoff_default"])
    assert [rec["converged"] for rec in report.records] == [True] * len(report.records)


def test_every_experiment_has_a_small_case():
    assert set(SMALL_CASES) == set(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_record_keys_match_columns(tmp_path, name):
    report = run_case(tmp_path, SMALL_CASES[name])
    assert report.records
    for rec in report.records:
        assert list(rec) == list(EXPERIMENTS[name].columns)
