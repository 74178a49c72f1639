"""Config parsing, dispatch, report emission, and the exit-code contract."""
import csv
import io
import json

import numpy as np
import pytest

from asymmbench import ki
from asymmbench.cli import main, parse_config, print_schema, run
from asymmbench.errors import ParseError, SchemaVersionMismatch
from asymmbench.optimize import max_recovery_fidelity
from asymmbench.qtypes import DensityMatrix, SystemSpec, apply_channel, random_density_matrix
from asymmbench.report import emit_csv, report_to_json
from asymmbench.serialize import density_from_json, matrix_to_json
from asymmbench.symmetry import random_covariant_channel


HALF = matrix_to_json(np.eye(2) / 2)
MIXED3 = matrix_to_json(np.eye(3) / 3)
PLUS3 = matrix_to_json(np.ones((3, 3)) / 3)
QUTRIT = {"dim": 3, "spectrum": [0, 1, 2], "eigenbasis": "computational"}
NOT_UNITARY = matrix_to_json(np.array([[1.0, 1.0], [0.0, 1.0]]))


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def config_text(**fields):
    return json.dumps({"schema_version": 1, **fields})


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
        # the gap tolerance is fixed in code, so any tol is an unknown key
        path = write_config(
            tmp_path,
            "c.json",
            {"schema_version": 1, "experiment": "no_broadcast", "optimizer": {"tol": -1e-4}},
        )
        with pytest.raises(ParseError, match="unknown optimizer key 'tol'"):
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
        back = json.loads(report_to_json(report))
        assert back["records"] == list(report.records)
        assert back["assertions"] == list(report.assertions)

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
        "files, named",
        [
            pytest.param(
                {"c.json": config_text(experiment="no_broadcast", lambda_schedule=[])},
                "'lambda_schedule'",
                id="empty-list",
            ),
            pytest.param(
                {"c.json": config_text(experiment="no_broadcast", optimizer="fast")},
                "'optimizer'",
                id="optimizer-not-an-object",
            ),
            pytest.param(
                {"c.json": config_text(experiment="cloner", seed=-1)}, "'seed'", id="negative-seed"
            ),
            pytest.param(
                {"c.json": config_text(experiment="cloner", seed=1.5)}, "'seed'", id="fractional-seed"
            ),
            pytest.param(
                {"c.json": config_text(experiment="nonadditivity", t="pi")}, "'t'", id="not-a-number"
            ),
            pytest.param(
                {"c.json": config_text(experiment="complementarity", mode=3)},
                "'mode'",
                id="not-a-string",
            ),
            pytest.param(
                {"c.json": config_text(experiment="ki", state="s.json"), "s.json": "{"},
                "s.json",
                id="field-file-not-json",
            ),
            pytest.param(
                {"c.json": config_text(experiment="ki", state=3)},
                "'state'",
                id="neither-path-nor-object",
            ),
            pytest.param({}, "c.json", id="missing-config-file"),
            pytest.param({"c.json": "[1, 2]"}, "config root", id="root-not-an-object"),
            pytest.param(
                {"c.json": config_text(experiment="irrev")}, "'target'", id="missing-required"
            ),
        ],
    )
    def test_config_error_names_its_field_or_file(self, tmp_path, capsys, files, named):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert main(["validate", "--config", str(tmp_path / "c.json")]) == 4
        assert named in capsys.readouterr().err

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
            {"experiment": "no_broadcast", "optimizer": {"max_iter": 0}},
            {"experiment": "degradation", "optimizer": {"tol": -1.0}},
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

    @pytest.mark.parametrize("t", [0.0, np.pi, -np.pi, 2 * np.pi, 3 * np.pi + 4e-5])
    def test_nonadditivity_unfaithful_t_is_a_config_error(self, tmp_path, capsys, t):
        # f_t(Bell) = 1 - |cos t| vanishes at multiples of pi; within 1e-9
        # of that the entangled row cannot be violated
        path = write_config(
            tmp_path, "c.json", {"schema_version": 1, "experiment": "nonadditivity", "t": t}
        )
        assert main(["validate", "--config", str(path)]) == 4
        assert "not faithful on the Bell state" in capsys.readouterr().err
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 4

    @pytest.mark.parametrize("t", [np.pi + 1e-4, 1.0, 3 * np.pi / 2])
    def test_nonadditivity_faithful_t_runs(self, tmp_path, t):
        path = write_config(
            tmp_path, "c.json", {"schema_version": 1, "experiment": "nonadditivity", "t": t}
        )
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize(
        "payload",
        [
            {"experiment": "ki", "state": MIXED3, "system_q": QUTRIT},
            {"experiment": "ki", "states": [MIXED3, PLUS3]},
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

    def test_irrev_records_ignore_the_seed(self, tmp_path):
        # Recovering a qubit from a qutrit starts at the replacement channel
        # (no isometry embeds the qutrit's spectrum in the qubit's): the
        # recovery draws nothing, so the records do not follow the seed.
        def records(seed):
            payload = {
                "schema_version": 1,
                "experiment": "irrev",
                "seed": seed,
                "target": PLUS3,
                "system_from": QUTRIT,
                "optimizer": {"max_iter": 20, "restarts": 2},
            }
            return run(parse_config(write_config(tmp_path, f"s{seed}.json", payload))).records

        res = max_recovery_fidelity(
            DensityMatrix.pure([1.0, 1.0]),
            density_from_json(PLUS3),
            SystemSpec.diagonal([0, 1, 2]),
            SystemSpec.diagonal([0, 1]),
            20,
        )
        expected = tuple({"iteration": it, "fidelity": val} for it, val in res.fidelity_trace)
        assert records(3) == expected
        assert records(0) == expected

    @pytest.mark.parametrize(
        "payload, error",
        [
            ({"experiment": "no_broadcast", "orbit_samples": 4}, "config key 'orbit_samples'"),
            ({"experiment": "ki", "orbit_samples": 4}, "config key 'orbit_samples'"),
            ({"experiment": "no_broadcast", "optimizer": {"seed": 3}}, "optimizer key 'seed'"),
            ({"experiment": "tradeoff", "optimizer": {"seed": 3}}, "optimizer key 'seed'"),
            ({"experiment": "degradation", "optimizer": {"seed": 3}}, "optimizer key 'seed'"),
            (
                {"experiment": "irrev", "target": HALF, "optimizer": {"seed": 3}},
                "optimizer key 'seed'",
            ),
        ],
        ids=[
            "no_broadcast-orbit_samples",
            "ki-orbit_samples",
            "no_broadcast-optimizer.seed",
            "tradeoff-optimizer.seed",
            "degradation-optimizer.seed",
            "irrev-optimizer.seed",
        ],
    )
    def test_deleted_key_is_an_unknown_key(self, tmp_path, capsys, payload, error):
        # the orbit sample count is derived, and the run seed seeds the optimizer
        path = write_config(tmp_path, "c.json", {"schema_version": 1, **payload})
        assert main(["validate", "--config", str(path)]) == 4
        assert f"unknown {error}" in capsys.readouterr().err
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 4

    @pytest.mark.parametrize(
        "text",
        [
            '"experiment": "nonadditivity", "t": NaN',
            '"experiment": "no_broadcast", "t": -Infinity',
            '"experiment": "nonadditivity", "t": 1e400',
            '"experiment": "degradation", "angle": Infinity',
            '"experiment": "irrev", "target": %s, "optimizer": {"tol": NaN}' % json.dumps(HALF),
            '"experiment": "ki", "system_q": {"dim": 2, "spectrum": [0, Infinity]}',
            '"experiment": "ki", "state": {"rows": Infinity, "cols": 2, "re": [], "im": []}',
            '"experiment": "ki", "state": "state.json"',
            '"experiment": "nonadditivity", "t": 1%s' % ("0" * 400),
            '"experiment": "ki", "system_q": {"dim": 2, "spectrum": [0, -1%s]}' % ("0" * 5000),
        ],
        ids=["t-nan", "t-neg-inf", "t-overflow", "angle-inf", "tol-nan", "spectrum-inf",
             "rows-inf", "file-nan", "t-int-overflow", "spectrum-int-overflow"],
    )
    def test_non_finite_number_is_a_config_error(self, tmp_path, capsys, text):
        (tmp_path / "state.json").write_text(
            '{"rows": 2, "cols": 2, "re": [0.5, 0, 0, NaN], "im": [0, 0, 0, 0]}'
        )
        path = tmp_path / "c.json"
        path.write_text('{"schema_version": 1, %s}' % text)
        assert main(["validate", "--config", str(path)]) == 4
        assert "non-finite number" in capsys.readouterr().err
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 4

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

    def test_ki_reconstruction_failure_is_a_numerical_error(self, tmp_path, capsys, monkeypatch):
        # The decomposition's own validation is the reconstruction check: a
        # 1e-6 error in every reconstructed state stops the run with exit 3.
        exact = ki.reconstruct_state

        def perturbed(dec, x):
            out = exact(dec, x)
            out[0, 0] += 1e-6
            return out

        monkeypatch.setattr(ki, "reconstruct_state", perturbed)
        path = write_config(tmp_path, "c.json", {"schema_version": 1, "experiment": "ki"})
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 3
        assert "DecompositionInvalid" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("source", ["inline", "file"])
    @pytest.mark.parametrize(
        "field, obj",
        [
            ("state", {**HALF, "rows": "2"}),
            ("state", {**HALF, "rows": 2.9}),
            ("state", {**HALF, "re": ["0.5", 0.0, 0.0, "0.5"]}),
            ("state", {**HALF, "re": [True, 0.0, 0.0, 0.0]}),
            ("system_q", {"dim": "2", "spectrum": [0, 1]}),
            ("system_q", {"dim": 2.7, "spectrum": [0, 1]}),
            ("system_q", {"dim": True, "spectrum": [0]}),
            ("system_q", {"dim": 2, "spectrum": [0, True]}),
            ("system_q", {"dim": 2, "spectrum": [0, 1], "eigenbasis": NOT_UNITARY}),
        ],
        ids=[
            "rows-string", "rows-fraction", "re-string", "re-bool", "dim-string",
            "dim-fraction", "dim-bool", "spectrum-bool", "basis-not-unitary",
        ],
    )
    def test_wire_type_error_is_a_config_error(self, tmp_path, capsys, field, obj, source):
        # A one-level system needs a one-level state, so that only the
        # field's type can be at fault.
        payload = {"experiment": "ki", field: obj}
        if obj.get("dim") is True:
            payload["state"] = {"rows": 1, "cols": 1, "re": [1.0], "im": [0.0]}
        if source == "file":
            (tmp_path / "field.json").write_text(json.dumps(obj))
            payload[field] = "field.json"
        path = write_config(tmp_path, "c.json", {"schema_version": 1, **payload})
        assert main(["validate", "--config", str(path)]) == 4
        assert repr(field) in capsys.readouterr().err
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 4
        assert repr(field) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entry", [1e300, -1e300, 2**53 + 2], ids=["1e300", "-1e300", "2^53+2"])
    def test_oversized_spectrum_is_a_config_error(self, tmp_path, capsys, entry):
        # beyond 2**53 a float64 phase cannot resolve the entry
        system = {"dim": 2, "spectrum": [0, entry]}
        payload = {"schema_version": 1, "experiment": "degradation"}
        path = write_config(tmp_path, "c.json", {**payload, "system_q": system, "system_s": system})
        assert main(["validate", "--config", str(path)]) == 4
        assert "2**53" in capsys.readouterr().err
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 4
        assert "2**53" in capsys.readouterr().err
        assert not out.exists()

    def test_spectrum_entry_at_2_53_validates(self, tmp_path):
        system = {"dim": 2, "spectrum": [0, 2**53]}
        payload = {"schema_version": 1, "experiment": "degradation"}
        path = write_config(tmp_path, "c.json", {**payload, "system_q": system, "system_s": system})
        assert main(["validate", "--config", str(path)]) == 0

    @pytest.mark.parametrize(
        "payload",
        [
            {"experiment": "complementarity", "dim": 300},
            {"experiment": "complementarity", "dim": 11},
            {"experiment": "lemma8", "dims": [10000000], "trials": 1},
            {"experiment": "lemma8", "dims": [2, 9], "trials": 1},
            # trials x d^2 above the default 10,000 trials at d = 8
            {"experiment": "lemma8", "dims": [8], "trials": 11_000},
        ],
        ids=[
            "complementarity-300", "complementarity-11", "lemma8-1e7", "lemma8-9", "lemma8-trials"
        ],
    )
    def test_oversized_run_is_a_size_cap(self, tmp_path, capsys, payload):
        # a dimension the run cannot hold in memory is refused before any
        # array is built, as the other caps are
        path = write_config(tmp_path, "c.json", {"schema_version": 1, **payload})
        assert main(["validate", "--config", str(path)]) == 0
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 3
        assert "SizeCap" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload, message",
        [
            (
                {"experiment": "tradeoff", "state": matrix_to_json(np.diag([1.0, 0.0]))},
                "symmetric (max |[psi, H]| = 0.000e+00)",
            ),
            ({"experiment": "lemma8", "dims": [1], "trials": 10}, "dimensions >= 2, got 1"),
            ({"experiment": "cloner", "d_list": [1]}, "dimension >= 2, got 1"),
            ({"experiment": "complementarity", "dim": 1}, "dimension >= 2, got 1"),
        ],
        ids=["tradeoff-symmetric", "lemma8-1", "cloner-1", "complementarity-1"],
    )
    def test_check_true_by_construction_is_refused(self, tmp_path, capsys, payload, message):
        # a symmetric tradeoff state, or a one-level system, passes every
        # check with witness 0 whatever the code computes
        path = write_config(tmp_path, "c.json", {"schema_version": 1, **payload})
        assert main(["validate", "--config", str(path)]) == 0
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "PreconditionFailed" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload",
        [
            {"experiment": "complementarity", "mode": "move"},
            {"experiment": "degradation", "state": matrix_to_json(np.diag([0.3, 0.7]))},
        ],
        ids=["complementarity-move", "degradation-symmetric"],
    )
    def test_run_without_assertions_prints_no_checks(self, tmp_path, capsys, payload):
        # the move map only reports its marginals, and a symmetric state
        # induces a covariant map, which the degradation demo does not check:
        # the run exits 0 but does not claim a pass
        path = write_config(tmp_path, "c.json", {"schema_version": 1, **payload})
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("NO CHECKS: report ")
        assert "PASS" not in out

    def test_complementarity_at_its_cap_runs(self, tmp_path):
        payload = {"schema_version": 1, "experiment": "complementarity", "dim": 10}
        path = write_config(tmp_path, "c.json", payload)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize(
        "orbit",
        [{"state": PLUS3, "system_q": QUTRIT}, {"state": HALF}, {"system_q": QUTRIT}],
        ids=["qutrit", "qubit", "system_q"],
    )
    def test_ki_state_beside_states_is_a_config_error(self, tmp_path, capsys, orbit):
        # a states list replaces the orbit of state under system_q, which
        # would be dropped unread
        payload = {
            "schema_version": 1,
            "experiment": "ki",
            "states": [HALF, matrix_to_json(np.diag([1.0, 0.0]))],
            **orbit,
        }
        path = write_config(tmp_path, "c.json", payload)
        assert main(["validate", "--config", str(path)]) == 4
        assert "'states' replaces the orbit of 'state'" in capsys.readouterr().err
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 4
        assert "'states' replaces the orbit of 'state'" in capsys.readouterr().err
        assert not out.exists()

    def test_loose_tolerance_is_an_unknown_key(self, tmp_path, capsys):
        # With max_iter 1 and tol 1 this recovery stopped at gap 0.51 and
        # irrev 0.273, against a certified optimum of 0.1226, yet passed
        # irrev_converged.  What converged means is fixed in code.
        rng = np.random.default_rng(1)
        rho = random_density_matrix(3, 3, rng)
        system = SystemSpec.diagonal([0, 1, 2])
        sigma = apply_channel(random_covariant_channel(system, system, rng), rho)
        payload = {
            "schema_version": 1,
            "experiment": "irrev",
            "state": matrix_to_json(rho.mat),
            "target": matrix_to_json(sigma.mat),
            "system_from": QUTRIT,
            "system_to": QUTRIT,
            "optimizer": {"max_iter": 1, "tol": 1},
        }
        path = write_config(tmp_path, "c.json", payload)
        assert main(["validate", "--config", str(path)]) == 4
        assert "'tol'" in capsys.readouterr().err
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 4
        assert "'tol'" in capsys.readouterr().err

    def test_negative_seed_override_is_a_config_error(self, tmp_path, capsys):
        path = write_config(
            tmp_path, "c.json", {"schema_version": 1, "experiment": "lemma8", "trials": 100}
        )
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--seed", "-1", "--out", str(out)]) == 4
        assert "seed must be nonnegative" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())
