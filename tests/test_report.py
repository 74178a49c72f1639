"""Report emission details and reproducibility pins."""
import csv
import io
import json

import numpy as np
import pytest

from asymmbench import RNG_ALGORITHM
from asymmbench.errors import IoError
from asymmbench.report import ExperimentReport, emit_csv, report_to_json


def make_report(experiment, records):
    return ExperimentReport(
        config={"schema_version": 1, "experiment": experiment, "seed": 0},
        records=tuple(records),
        assertions=({"name": "x", "passed": True, "witness": 0.0},),
        wall_time_s=0.1,
    )


class TestCsv:
    def test_empty_records_header_only(self):
        text = emit_csv(make_report("tradeoff", []))
        assert text.splitlines() == [
            "t,ft_input,ft_output,irrev,irrev_lower,rhs,slack,converged"
        ]

    def test_floats_round_trip_exactly(self):
        value = 0.1234567890123456789
        rec = {
            "t": value,
            "ft_input": 1e-17,
            "ft_output": 0.0,
            "irrev": 2.0 / 3.0,
            "irrev_lower": 1.0 / 3.0,
            "rhs": value,
            "slack": 0.0,
            "converged": True,
        }
        text = emit_csv(make_report("tradeoff", [rec]))
        row = next(csv.DictReader(io.StringIO(text)))
        for key in ("t", "ft_input", "irrev", "irrev_lower"):
            assert float(row[key]) == rec[key]
        assert row["converged"] == "true"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(IoError):
            emit_csv(make_report("mystery", []))

    @pytest.mark.parametrize(
        "record",
        [
            {"block": 0, "m": 1, "k": 1, "reconstruction_residul": 0.0},
            {"block": 0, "m": 1, "k": 1},
            {"block": 0, "m": 1, "k": 1, "reconstruction_residual": 0.0, "extra": 1},
        ],
    )
    def test_column_drift_rejected(self, record):
        with pytest.raises(IoError, match="keys"):
            emit_csv(make_report("ki", [record]))


class TestReportJson:
    def test_lossless_round_trip(self):
        rep = make_report("lemma8", [{"dim": 2, "max_violation": -0.5}])
        back = json.loads(report_to_json(rep))
        assert back["records"] == list(rep.records)
        assert back["assertions"] == list(rep.assertions)
        assert back["rng_algorithm"] == RNG_ALGORITHM


class TestRngPin:
    def test_pcg64_reference_draws(self):
        # Reference vectors for the pinned generator: if the stream ever
        # changes, determinism claims across recorded reports would break,
        # so fail loudly here.
        rng = np.random.default_rng(0)
        draws = rng.standard_normal(3)
        expected = np.array(
            [0.1257302210933933, -0.1321048632913019, 0.6404226504432821]
        )
        assert np.array_equal(draws, expected)

    def test_identifier(self):
        assert RNG_ALGORITHM == "numpy-pcg64"
