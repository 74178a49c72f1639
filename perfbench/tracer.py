"""Span tracer that times calls into the program's layers from outside.

Modules import layer functions by name (``hermitian_eig`` is bound in
most of them), so patching one module attribute would miss most calls.
``Tracer.install`` wraps a function by replacing *every* attribute of
every loaded ``asymmbench`` module that is the original object, and
patches methods on their class.  A listed function that no longer
exists is an error, and ``restore`` puts every original back.

Spans (name, start, end, parent, job id) live in flat arrays and are
written out once, at exit.  A span's self time is its duration minus the
durations of its direct children.
"""
from __future__ import annotations

import array
import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """A traced function: span name, home module, attribute, optional class."""

    span: str
    module: str
    attr: str
    cls: str | None = None
    tag: Callable | None = None  # (*args, **kwargs) -> str, stored per span
    observe: Callable | None = None  # (result) -> dict, stored per span


def _choi_dim(j, *args, **kwargs) -> str:
    return f"D{np.shape(j)[0]}"


def _irrev_result(res) -> dict:
    return {"trace_len": len(res.fidelity_trace), "converged": bool(res.converged)}


def _text_size(text) -> dict:
    return {"bytes": len(text)}


TARGETS = (
    Target("cli.parse_config", "asymmbench.cli", "parse_config"),
    Target("cli.run", "asymmbench.cli", "run"),
    Target("report.report_to_json", "asymmbench.report", "report_to_json", observe=_text_size),
    Target("report.emit_csv", "asymmbench.report", "emit_csv", observe=_text_size),
    Target("serialize.density_from_json", "asymmbench.serialize", "density_from_json"),
    Target("serialize.system_from_json", "asymmbench.serialize", "system_from_json"),
    Target("experiments.run_tradeoff_sweep", "asymmbench.experiments", "run_tradeoff_sweep"),
    Target("experiments.run_degradation_demo", "asymmbench.experiments", "run_degradation_demo"),
    Target("experiments.twirled_partial_swap", "asymmbench.experiments", "twirled_partial_swap"),
    Target("experiments.run_nonadditivity", "asymmbench.experiments", "run_nonadditivity"),
    Target("experiments.universal_cloner", "asymmbench.experiments", "universal_cloner"),
    Target(
        "experiments.check_fidelity_perturbation_lemma",
        "asymmbench.experiments",
        "check_fidelity_perturbation_lemma",
    ),
    Target(
        "experiments.check_broadcast_complementarity",
        "asymmbench.experiments",
        "check_broadcast_complementarity",
    ),
    Target("optimize.broadcast", "asymmbench.optimize", "optimize_broadcast"),
    Target("optimize.recovery", "asymmbench.optimize", "max_recovery_fidelity", observe=_irrev_result),
    Target("optimize.ascend", "asymmbench.optimize", "_ascend"),
    Target("optimize.project", "asymmbench.optimize", "project_covariant_tp_psd", tag=_choi_dim),
    Target("optimize.fidelity_gradient", "asymmbench.optimize", "fidelity_gradient"),
    Target("ki.ki_decompose", "asymmbench.ki", "ki_decompose"),
    Target("ki.generate_algebra", "asymmbench.ki", "generate_algebra"),
    Target("ki.wedderburn_decompose", "asymmbench.ki", "wedderburn_decompose"),
    Target("symmetry.measure_ft", "asymmbench.symmetry", "measure_ft"),
    Target("symmetry.skew_information", "asymmbench.symmetry", "skew_information"),
    Target("symmetry.random_covariant_channel", "asymmbench.symmetry", "random_covariant_channel"),
    Target("symmetry.dephase", "asymmbench.symmetry", "dephase", cls="CovarianceSector"),
    Target("qtypes.apply_choi", "asymmbench.qtypes", "apply_choi"),
    Target("qtypes.choi_from_map", "asymmbench.qtypes", "choi_from_map"),
    Target("qtypes.random_density_matrix", "asymmbench.qtypes", "random_density_matrix"),
    Target("linalg.hermitian_eig", "asymmbench.linalg", "hermitian_eig"),
    Target("linalg.psd_sqrt", "asymmbench.linalg", "psd_sqrt"),
    Target("linalg.fidelity_arrays", "asymmbench.linalg", "fidelity_arrays"),
    Target("linalg.trace_norm", "asymmbench.linalg", "trace_norm"),
    Target("linalg.partial_trace", "asymmbench.linalg", "partial_trace"),
    Target("linalg.tensor_product", "asymmbench.linalg", "tensor_product"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.job = array.array("i")
        self.info: dict[int, dict] = {}
        self.errors: dict[int, str] = {}
        self.current_job = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.current_job)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, target: Target, func):
        name_id = self._intern(target.span)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                if target.tag is not None:
                    self.info[idx] = {"tag": target.tag(*args, **kwargs)}
                result = func(*args, **kwargs)
            except BaseException as exc:
                self.errors[idx] = type(exc).__name__
                raise
            finally:
                self._close(idx)
            if target.observe is not None:
                self.info.setdefault(idx, {}).update(target.observe(result))
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every binding of every target; raise if a target is gone."""
        try:
            for target in targets:
                home = importlib.import_module(target.module)
                if target.cls is not None:
                    owner = getattr(home, target.cls)
                    orig = owner.__dict__[target.attr]
                    self._saved.append((owner, target.attr, orig))
                    setattr(owner, target.attr, self._wrap(target, orig))
                    continue
                orig = getattr(home, target.attr, None)
                if orig is None:
                    raise RuntimeError(f"traced function {target.module}.{target.attr} is gone")
                wrapper = self._wrap(target, orig)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "asymmbench" and not mod_name.startswith("asymmbench."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._saved.append((mod, key, orig))
                            setattr(mod, key, wrapper)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        """(name ids, durations, self times, parents) as numpy arrays."""
        names = np.array(self.name_id, dtype=np.int64)
        start = np.array(self.start)
        dur = np.array(self.end) - start
        parent = np.array(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return names, dur, dur - child, parent

    def write(self, path) -> None:
        """Dump every span as [name, start, end, parent, job] plus per-span info."""
        spans = [
            [self.names[n], s, e, p, j]
            for n, s, e, p, j in zip(self.name_id, self.start, self.end, self.parent, self.job)
        ]
        payload = {
            "fields": ["name", "start", "end", "parent", "job"],
            "spans": spans,
            "info": {str(k): v for k, v in self.info.items()},
            "errors": {str(k): v for k, v in self.errors.items()},
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
