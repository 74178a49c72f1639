"""Batch front door: strict config parsing, seeded dispatch, report emission.

Each experiment's config fields and runner come from its entry in
experiments.EXPERIMENTS; this module checks and parses fields against
those specs, fills defaults and assembles the report.  Every state and
system is parsed and dimension-checked here, so validate rejects what run would.

Exit codes: 0 all assertions pass, or the run has none and prints NO
CHECKS; 2 assertion failure; 3 numerical error; 4 config error.  Unknown
config keys are fatal by design: a silently ignored typo in a tolerance
name would invalidate a theorem assertion.

Randomness is pinned to one documented generator (numpy's PCG64 behind
numpy.random.Generator); the report records its identifier, and the test
suite pins reference draws so a stream change cannot go unnoticed.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ParseError, SchemaVersionMismatch, WorkbenchError
from .experiments import EXPERIMENTS
from .report import ExperimentReport, emit_csv, report_to_json
from .serialize import density_from_json, system_from_json

SCHEMA_VERSION = 1

_COMMON_FIELDS = {
    "schema_version": {"type": "int", "required": True},
    "experiment": {"type": "string", "required": True},
    "seed": {"type": "nonnegative_int", "default": 0},
}

_OPTIMIZER_FIELDS = {
    "max_iter": {"type": "positive_int", "default": None},
    "restarts": {"type": "positive_int", "default": None},
}


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment configuration with defaults filled in.

    params holds the checked values as echoed into reports (states and
    systems as their JSON); values holds what the runner gets (states as
    DensityMatrix, systems as SystemSpec).
    """

    experiment: str
    seed: int
    params: dict
    values: dict

    def echo(self) -> dict:
        """Config as echoed into reports (defaults made explicit)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": self.experiment,
            "seed": self.seed,
            **dict(sorted(self.params.items())),
        }


# List kinds: the kind of each item and how error messages name the items.
_LIST_KINDS = {
    "number_list": ("number", "numbers"),
    "int_list": ("positive_int", "integers"),
    "matrix_list": ("matrix", "matrices"),
}


def _check_type(name: str, value, kind: str, base_dir: Path) -> tuple:
    """Check one field; return (its echo in the report, the value the runner gets).

    The two differ only for states and systems: the echo keeps the JSON,
    the runner gets the parsed object.
    """
    if kind in _LIST_KINDS:
        item_kind, items = _LIST_KINDS[kind]
        if not isinstance(value, list) or not value:
            raise ParseError(f"field {name!r} must be a nonempty list of {items}")
        pairs = [_check_type(f"{name}[{i}]", v, item_kind, base_dir) for i, v in enumerate(value)]
        return [echo for echo, _ in pairs], [parsed for _, parsed in pairs]
    if kind in ("matrix", "pure_state"):
        obj = _load_inline_or_path(name, value, base_dir)
        state = _parsed(name, density_from_json, obj)
        if kind == "pure_state" and np.linalg.eigvalsh(state.mat)[-1] < 1.0 - 1e-9:
            raise ParseError(f"field {name!r} must be a pure state")
        return obj, state
    if kind == "system":
        obj = _load_inline_or_path(name, value, base_dir)
        return obj, _parsed(name, system_from_json, obj)
    if kind == "optimizer":
        if not isinstance(value, dict):
            raise ParseError(f"field {name!r} must be an object")
        unknown = set(value) - set(_OPTIMIZER_FIELDS)
        if unknown:
            raise ParseError(f"unknown optimizer key {sorted(unknown)[0]!r}")
        out = {
            key: _check_scalar(f"{name}.{key}", value[key], spec["type"])
            for key, spec in _OPTIMIZER_FIELDS.items()
            if key in value
        }
        return out, out
    checked = _check_scalar(name, value, kind)
    return checked, checked


def _check_scalar(name: str, value, kind: str):
    if kind == "nonnegative_int":
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ParseError(f"field {name!r} must be a nonnegative integer")
        return value
    if kind == "positive_int":
        if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
            raise ParseError(f"field {name!r} must be a positive integer")
        return value
    if kind == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParseError(f"field {name!r} must be a number")
        return float(value)
    if kind == "string":
        if not isinstance(value, str):
            raise ParseError(f"field {name!r} must be a string")
        return value
    raise ParseError(f"internal: unknown field kind {kind!r}")  # pragma: no cover


def _parsed(name: str, parse, obj):
    """Parse a state or system, turning a malformed one into a config error."""
    try:
        return parse(obj)
    except (ParseError, TypeError, ValueError) as exc:
        raise ParseError(f"field {name!r}: {exc}") from exc


def _finite_float(text: str) -> float:
    """json's float and NaN/Infinity hook: a non-finite number is a config error."""
    value = float(text)
    if not math.isfinite(value):
        shown = text if len(text) <= 24 else f"{text[:20]}... ({len(text)} characters)"
        raise ParseError(f"non-finite number {shown}")
    return value


def _finite_int(text: str) -> int:
    """json's int hook: an integer beyond the float range is a config error."""
    _finite_float(text)
    return int(text)


def _load_json(text: str):
    """json.loads with the hooks above: a non-finite number is a config error."""
    return json.loads(
        text, parse_float=_finite_float, parse_int=_finite_int, parse_constant=_finite_float
    )


def _load_inline_or_path(name: str, value, base_dir: Path):
    """Matrix/system fields accept inline JSON objects or a path string."""
    if isinstance(value, str):
        path = Path(value)
        if not path.is_absolute():
            path = base_dir / path
        if not path.exists():
            raise ParseError(f"field {name!r}: file {path} does not exist")
        try:
            return _load_json(path.read_text())
        except json.JSONDecodeError as exc:
            raise ParseError(f"field {name!r}: file {path} is not valid JSON: {exc}")
        except ParseError as exc:
            raise ParseError(f"field {name!r}: file {path}: {exc}") from exc
    if isinstance(value, dict):
        return value
    raise ParseError(f"field {name!r} must be a path string or an inline JSON object")


def parse_config(path: str | Path) -> RunConfig:
    """Load and strictly validate a config file; fill and echo defaults."""
    path = Path(path)
    try:
        raw = _load_json(path.read_text())
    except FileNotFoundError as exc:
        raise ParseError(f"config file {path} does not exist") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError("config root must be a JSON object")

    version = raw.get("schema_version")
    if version is None:
        raise SchemaVersionMismatch("config is missing the schema_version field")
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"config schema_version {version!r} is not supported (expected {SCHEMA_VERSION})"
        )
    experiment = raw.get("experiment")
    if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
        raise ParseError(
            f"unknown experiment {experiment!r}; choose from {sorted(EXPERIMENTS)}"
        )
    fields = EXPERIMENTS[experiment].fields
    unknown = set(raw) - set(_COMMON_FIELDS) - set(fields)
    if unknown:
        raise ParseError(f"unknown config key {sorted(unknown)[0]!r}")

    base_dir = path.parent
    seed = _check_scalar("seed", raw.get("seed", 0), "nonnegative_int")
    params, values = {}, {}
    for key, spec in fields.items():
        if key in raw:
            params[key], values[key] = _check_type(key, raw[key], spec["type"], base_dir)
            if "choices" in spec and params[key] not in spec["choices"]:
                raise ParseError(f"field {key!r} must be one of {spec['choices']}")
        elif spec.get("required"):
            raise ParseError(f"missing required field {key!r}")
        else:
            params[key] = values[key] = spec.get("default")
    EXPERIMENTS[experiment].check(values)
    return RunConfig(experiment, seed, params, values)


def print_schema() -> str:
    schema = {
        "schema_version": SCHEMA_VERSION,
        "common": _COMMON_FIELDS,
        "optimizer": _OPTIMIZER_FIELDS,
        "experiments": {
            name: {
                k: {kk: vv for kk, vv in v.items() if kk != "default" or vv is not None}
                for k, v in exp.fields.items()
            }
            for name, exp in EXPERIMENTS.items()
        },
        "matrix_format": {"rows": "int", "cols": "int", "re": "[float]", "im": "[float]"},
        "system_format": {
            "dim": "int",
            "spectrum": "[int]",
            "eigenbasis": "matrix JSON or 'computational'",
        },
        "exit_codes": {
            "0": "all assertions pass, or the run has none and prints NO CHECKS",
            "2": "assertion failure",
            "3": "numerical error",
            "4": "config error",
        },
    }
    return json.dumps(schema, indent=2, sort_keys=True)


def run(cfg: RunConfig) -> ExperimentReport:
    """Run a validated config through its registry entry; deterministic given (config, seed)."""
    started = time.perf_counter()
    records, assertions = EXPERIMENTS[cfg.experiment].run(cfg.values, cfg.seed)
    wall = time.perf_counter() - started
    return ExperimentReport(
        config=cfg.echo(),
        records=records,
        assertions=tuple(
            {"name": a.name, "passed": bool(a.passed), "witness": float(a.witness)}
            for a in assertions
        ),
        wall_time_s=wall,
    )


def _write_outputs(report: ExperimentReport, out_dir: Path) -> tuple[Path, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = "{experiment}_seed{seed}".format_map(report.config)
    json_path = out_dir / f"{stem}.report.json"
    csv_path = out_dir / f"{stem}.records.csv"
    json_path.write_text(report_to_json(report))
    csv_path.write_text(emit_csv(report))
    return json_path, csv_path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="asymmbench",
        description="Numerical workbench for translation-asymmetry experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=".", help="output directory for report and CSV")
    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("--config", required=True)
    sub.add_parser("schema", help="print the config JSON schema")

    args = parser.parse_args(argv)

    if args.command == "schema":
        print(print_schema())
        return 0

    try:
        cfg = parse_config(args.config)
    except ParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4

    if args.command == "validate":
        print(f"config OK: experiment={cfg.experiment} seed={cfg.seed}")
        return 0

    if args.seed is not None:
        if args.seed < 0:
            print("config error: seed must be nonnegative", file=sys.stderr)
            return 4
        cfg = replace(cfg, seed=args.seed)

    try:
        report = run(cfg)
    except WorkbenchError as exc:
        print(f"numerical error ({cfg.experiment}): {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    json_path, csv_path = _write_outputs(report, Path(args.out))
    if not report.assertions:
        status = "NO CHECKS"  # nothing was checked; still exit 0
    else:
        status = "PASS" if report.all_passed else "FAIL"
    for a in report.assertions:
        mark = "pass" if a["passed"] else "FAIL"
        print(f"[{mark}] {a['name']} (witness {a['witness']:.3e})")
    print(f"{status}: report {json_path}, records {csv_path}")
    return 0 if report.all_passed else 2


if __name__ == "__main__":
    sys.exit(main())
