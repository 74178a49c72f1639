"""Config parsing, dispatch, report emission, and the exit-code contract."""
import csv
import io
import json

import numpy as np
import pytest

from asymmbench.cli import main, parse_config, print_schema, run
from asymmbench.errors import ParseError, SchemaVersionMismatch
from asymmbench.report import emit_csv, report_from_json, report_to_json
from asymmbench.serialize import matrix_to_json


HALF = matrix_to_json(np.eye(2) / 2)
MIXED3 = matrix_to_json(np.eye(3) / 3)
PLUS3 = matrix_to_json(np.ones((3, 3)) / 3)
QUTRIT = {"dim": 3, "spectrum": [0, 1, 2], "eigenbasis": "computational"}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestParseConfig:
    def test_minimal_no_broadcast_defaults(self, tmp_path):
        cfg = parse_config(
            write_config(tmp_path, "c.json", {"schema_version": 1, "experiment": "no_broadcast"})
        )
        assert cfg.params["lambda_schedule"] == [0.0, 1.0, 4.0, 16.0, 64.0, 256.0]
        assert cfg.seed == 0

    def test_unknown_key_named(self, tmp_path):
        path = write_config(
            tmp_path, "c.json", {"schema_version": 1, "experiment": "no_broadcast", "gamma": 2}
        )
        with pytest.raises(ParseError, match="gamma"):
            parse_config(path)

    def test_negative_tolerance(self, tmp_path):
        path = write_config(
            tmp_path,
            "c.json",
            {"schema_version": 1, "experiment": "no_broadcast", "optimizer": {"tol": -1e-4}},
        )
        with pytest.raises(ParseError, match="optimizer.tol"):
            parse_config(path)

    def test_missing_schema_version(self, tmp_path):
        path = write_config(tmp_path, "c.json", {"experiment": "nonadditivity"})
        with pytest.raises(SchemaVersionMismatch):
            parse_config(path)

    def test_wrong_schema_version(self, tmp_path):
        path = write_config(tmp_path, "c.json", {"schema_version": 99, "experiment": "cloner"})
        with pytest.raises(SchemaVersionMismatch):
            parse_config(path)

    def test_unknown_experiment(self, tmp_path):
        path = write_config(tmp_path, "c.json", {"schema_version": 1, "experiment": "qqq"})
        with pytest.raises(ParseError, match="qqq"):
            parse_config(path)

    def test_state_file_reference(self, tmp_path):
        plus = np.ones((2, 2)) / 2
        state_path = tmp_path / "plus.json"
        state_path.write_text(json.dumps(matrix_to_json(plus)))
        cfg = parse_config(
            write_config(
                tmp_path,
                "c.json",
                {"schema_version": 1, "experiment": "ki", "state": "plus.json"},
            )
        )
        assert cfg.params["state"]["rows"] == 2

    def test_missing_file_reference(self, tmp_path):
        path = write_config(
            tmp_path,
            "c.json",
            {"schema_version": 1, "experiment": "ki", "state": "nope.json"},
        )
        with pytest.raises(ParseError, match="nope.json"):
            parse_config(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            parse_config(path)

    def test_optimizer_override(self, tmp_path):
        cfg = parse_config(
            write_config(
                tmp_path,
                "c.json",
                {
                    "schema_version": 1,
                    "experiment": "irrev",
                    "target": matrix_to_json(np.eye(2) / 2),
                    "optimizer": {"max_iter": 50, "restarts": 2},
                },
            )
        )
        assert cfg.params["optimizer"]["max_iter"] == 50

    def test_negative_optimizer_seed(self, tmp_path):
        path = write_config(
            tmp_path,
            "c.json",
            {
                "schema_version": 1,
                "experiment": "irrev",
                "target": matrix_to_json(np.eye(2) / 2),
                "optimizer": {"seed": -1},
            },
        )
        with pytest.raises(ParseError, match="optimizer.seed"):
            parse_config(path)

    def test_non_string_experiment(self, tmp_path):
        path = write_config(tmp_path, "c.json", {"schema_version": 1, "experiment": ["ki"]})
        with pytest.raises(ParseError, match="unknown experiment"):
            parse_config(path)

    def test_unknown_optimizer_key(self, tmp_path):
        path = write_config(
            tmp_path,
            "c.json",
            {
                "schema_version": 1,
                "experiment": "irrev",
                "target": matrix_to_json(np.eye(2) / 2),
                "optimizer": {"step": 3},
            },
        )
        with pytest.raises(ParseError, match="step"):
            parse_config(path)


class TestSchema:
    def test_schema_is_json_and_covers_experiments(self):
        schema = json.loads(print_schema())
        assert set(schema["experiments"]) == {
            "no_broadcast",
            "tradeoff",
            "degradation",
            "nonadditivity",
            "irrev",
            "ki",
            "cloner",
            "lemma8",
            "complementarity",
        }


class TestRunAndReports:
    def test_nonadditivity_report(self, tmp_path):
        cfg = parse_config(
            write_config(tmp_path, "c.json", {"schema_version": 1, "experiment": "nonadditivity"})
        )
        report = run(cfg)
        assert report.all_passed
        assert len(report.assertions) == 5
        text = report_to_json(report)
        back = report_from_json(text)
        assert back.records == report.records
        assert back.assertions == report.assertions

    def test_irrev_run(self, tmp_path):
        cfg = parse_config(
            write_config(
                tmp_path,
                "c.json",
                {
                    "schema_version": 1,
                    "experiment": "irrev",
                    "target": matrix_to_json(np.eye(2) / 2),
                    "optimizer": {"max_iter": 300},
                },
            )
        )
        report = run(cfg)
        # default state |+>: analytic irreversibility 1/2
        assert abs(report.assertions[0]["witness"] - 0.5) < 1e-3

    def test_ki_run(self, tmp_path):
        cfg = parse_config(
            write_config(tmp_path, "c.json", {"schema_version": 1, "experiment": "ki"})
        )
        report = run(cfg)
        assert report.all_passed
        assert report.records[0]["m"] == 2 and report.records[0]["k"] == 1

    def test_csv_round_trip_floats(self, tmp_path):
        cfg = parse_config(
            write_config(tmp_path, "c.json", {"schema_version": 1, "experiment": "cloner"})
        )
        report = run(cfg)
        text = emit_csv(report)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(report.records)
        for parsed, original in zip(rows, report.records):
            for key in ("trace_error", "marginal_error"):
                assert float(parsed[key]) == original[key]

    def test_cloner_skips_capped_sizes(self, tmp_path):
        cfg = parse_config(
            write_config(
                tmp_path,
                "c.json",
                {"schema_version": 1, "experiment": "cloner", "d_list": [2, 6], "n_max": 5},
            )
        )
        report = run(cfg)
        assert report.all_passed
        # n <= 4 and d^n <= 1024: the sizes the explicit cloner accepts.
        assert [(r["d"], r["n"]) for r in report.records] == [
            (2, 1), (2, 2), (2, 3), (2, 4), (6, 1), (6, 2), (6, 3),
        ]

    def test_lemma8_determinism(self, tmp_path):
        payload = {"schema_version": 1, "experiment": "lemma8", "trials": 300, "seed": 11}
        r1 = run(parse_config(write_config(tmp_path, "a.json", payload)))
        r2 = run(parse_config(write_config(tmp_path, "b.json", payload)))
        assert r1.records == r2.records
        assert r1.assertions == r2.assertions

    def test_report_json_identical_except_wall_time(self, tmp_path):
        payload = {"schema_version": 1, "experiment": "cloner", "seed": 3}
        r1 = run(parse_config(write_config(tmp_path, "a.json", payload)))
        r2 = run(parse_config(write_config(tmp_path, "b.json", payload)))
        j1 = json.loads(report_to_json(r1))
        j2 = json.loads(report_to_json(r2))
        j1.pop("wall_time_s")
        j2.pop("wall_time_s")
        assert json.dumps(j1, sort_keys=True) == json.dumps(j2, sort_keys=True)


class TestMainExitCodes:
    def test_schema_command(self, capsys):
        assert main(["schema"]) == 0
        assert "experiments" in capsys.readouterr().out

    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {"schema_version": 1, "experiment": "cloner"})
        assert main(["validate", "--config", str(path)]) == 0

    def test_config_error_exit_4(self, tmp_path):
        path = write_config(tmp_path, "c.json", {"schema_version": 1, "experiment": "zzz"})
        assert main(["run", "--config", str(path)]) == 4

    @pytest.mark.parametrize(
        "experiment, key, value",
        [
            ("ki", "tol", 1e-8),
            ("no_broadcast", "coherence_tol", 1e-4),
            ("no_broadcast", "classical_control", True),
            ("no_broadcast", "classical_register_size", 2),
            ("degradation", "degradation_tol", 1e-6),
            ("nonadditivity", "cloner_n_cap", 13),
            ("cloner", "tol", 1e-10),
            ("complementarity", "tol", 1),
        ],
    )
    def test_fixed_bound_is_an_unknown_key(self, tmp_path, capsys, experiment, key, value):
        # tolerances, assertion bounds and sweep sizes are fixed in code, so a
        # config key for one is a config error whatever its value
        payload = {"schema_version": 1, "experiment": experiment, key: value}
        path = write_config(tmp_path, "c.json", payload)
        assert main(["validate", "--config", str(path)]) == 4
        assert repr(key) in capsys.readouterr().err
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 4
        assert repr(key) in capsys.readouterr().err
        assert key not in json.loads(print_schema())["experiments"][experiment]

    @pytest.mark.parametrize(
        "payload",
        [
            {"experiment": "complementarity", "mode": "bogus"},
            {"experiment": "tradeoff", "state": matrix_to_json(np.eye(2) / 2)},
            {"experiment": "ki", "state": matrix_to_json(np.diag([1.5, -0.5]))},
            {"experiment": "ki", "system_q": {"dim": 2, "spectrum": [0, 0.5]}},
            {"experiment": "ki", "state": {"rows": "two", "cols": 2, "re": [], "im": []}},
            {"experiment": "no_broadcast", "optimizer": {"seed": -1}},
            {"experiment": "degradation", "optimizer": {"seed": -1}},
        ],
    )
    def test_validate_rejects_what_run_rejects(self, tmp_path, payload):
        path = write_config(tmp_path, "c.json", {"schema_version": 1, **payload})
        assert main(["validate", "--config", str(path)]) == 4
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 4

    @pytest.mark.parametrize(
        "payload, fields",
        [
            ({"experiment": "ki", "state": MIXED3}, "state 3, system_q 2"),
            ({"experiment": "ki", "system_q": QUTRIT}, "state 2, system_q 3"),
            ({"experiment": "ki", "states": [HALF, MIXED3]}, "states[0] 2, states[1] 3"),
            ({"experiment": "tradeoff", "state": PLUS3}, "state 3, system_q 2"),
            ({"experiment": "no_broadcast", "system_q": QUTRIT}, "state 2, system_q 3"),
            ({"experiment": "degradation", "system_s": QUTRIT}, "system_q 2, system_s 3"),
            ({"experiment": "degradation", "probe": MIXED3}, "probe 3"),
            ({"experiment": "degradation", "state": MIXED3}, "state 3, system_q 2"),
            ({"experiment": "irrev", "target": MIXED3}, "target 3, system_from 2"),
            ({"experiment": "irrev", "target": HALF, "system_to": QUTRIT}, "state 2, system_to 3"),
        ],
    )
    def test_dimension_mismatch_is_a_config_error(self, tmp_path, capsys, payload, fields):
        path = write_config(tmp_path, "c.json", {"schema_version": 1, **payload})
        assert main(["validate", "--config", str(path)]) == 4
        assert fields in capsys.readouterr().err
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 4

    @pytest.mark.parametrize(
        "payload",
        [
            {"experiment": "ki", "state": MIXED3, "system_q": QUTRIT},
            # The states list replaces the orbit, so system_q is not checked against it.
            {"experiment": "ki", "states": [MIXED3, PLUS3], "system_q": QUTRIT},
            {"experiment": "degradation", "system_q": QUTRIT, "system_s": QUTRIT, "state": PLUS3},
            {
                "experiment": "irrev",
                "target": MIXED3,
                "state": PLUS3,
                "system_from": QUTRIT,
                "system_to": QUTRIT,
            },
        ],
    )
    def test_matching_dimensions_validate(self, tmp_path, payload):
        path = write_config(tmp_path, "c.json", {"schema_version": 1, **payload})
        assert main(["validate", "--config", str(path)]) == 0

    def test_optimizer_seed_overrides_run_seed(self, tmp_path):
        # Recovering a qubit from a qutrit starts at a random channel (the
        # identity start needs equal spaces), so the records follow the seed.
        def config(name, seed, optimizer):
            payload = {
                "schema_version": 1,
                "experiment": "irrev",
                "seed": seed,
                "target": PLUS3,
                "system_from": QUTRIT,
                "optimizer": {"max_iter": 20, "restarts": 2, **optimizer},
            }
            return write_config(tmp_path, name, payload)

        pinned = config("pinned.json", 0, {"seed": 3})
        assert main(["run", "--config", str(pinned), "--out", str(tmp_path / "o")]) == 0
        records = run(parse_config(pinned)).records
        assert records == run(parse_config(config("run_seed.json", 3, {}))).records
        assert records != run(parse_config(config("default.json", 0, {}))).records

    def test_run_writes_outputs(self, tmp_path):
        path = write_config(
            tmp_path, "c.json", {"schema_version": 1, "experiment": "cloner", "n_max": 2}
        )
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        files = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert files == ["cloner_seed0.records.csv", "cloner_seed0.report.json"]

    def test_lemma8_unsampled_dims_fail_with_valid_json(self, tmp_path):
        path = write_config(
            tmp_path, "c.json", {"schema_version": 1, "experiment": "lemma8", "trials": 1}
        )
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2

        def refuse(constant):
            raise ValueError(f"non-finite literal {constant} in the report")

        json.loads((tmp_path / "o" / "lemma8_seed0.report.json").read_text(), parse_constant=refuse)

    def test_seed_override(self, tmp_path):
        path = write_config(
            tmp_path, "c.json", {"schema_version": 1, "experiment": "lemma8", "trials": 100}
        )
        code = main(["run", "--config", str(path), "--seed", "9", "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "lemma8_seed9.report.json").exists()
