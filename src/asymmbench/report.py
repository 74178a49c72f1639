"""Experiment reports: JSON serialization and RFC 4180 CSV emission.

Reports are deterministic given (config, seed): records are emitted in a
fixed order with floats printed via repr (17 significant digits, exact
round trip); only the wall-time field varies between identical runs.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from . import RNG_ALGORITHM, __version__
from .errors import IoError
from .experiments import EXPERIMENTS

__all__ = ["ExperimentReport", "emit_csv", "report_to_json"]


@dataclass(frozen=True)
class ExperimentReport:
    config: dict  # the config echo, experiment and seed included
    records: tuple[dict, ...]
    assertions: tuple[dict, ...]
    wall_time_s: float

    @property
    def all_passed(self) -> bool:
        return all(a["passed"] for a in self.assertions)


def report_to_json(report: ExperimentReport) -> str:
    payload = {
        "experiment": report.config["experiment"],
        "config": report.config,
        "seed": report.config["seed"],
        "rng_algorithm": RNG_ALGORITHM,
        "tool_version": __version__,
        "wall_time_s": report.wall_time_s,
        "records": list(report.records),
        "assertions": list(report.assertions),
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_csv(report: ExperimentReport) -> str:
    """One row per record under the experiment's registered columns.

    Raises IoError for an unregistered experiment and for a record whose
    keys are not exactly the columns.
    """
    name = report.config["experiment"]
    experiment = EXPERIMENTS.get(name)
    if experiment is None:
        raise IoError(f"no CSV schema for experiment {name!r}")
    columns = experiment.columns
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(columns)
    for i, rec in enumerate(report.records):
        if set(rec) != set(columns):
            raise IoError(
                f"record {i} has keys {sorted(rec)}, "
                f"expected the {name!r} columns {list(columns)}"
            )
        writer.writerow([_format_cell(rec[col]) for col in columns])
    return buf.getvalue()
