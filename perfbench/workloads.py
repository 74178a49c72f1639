"""Workload definitions: seeded job generation and output checks.

A job is one experiment config fed through the program's front door
(``cli.parse_config`` -> ``cli.run`` -> ``report_to_json``/``emit_csv``).
Each workload turns its seed into a list of jobs; the seed is the only
source of randomness, so the same seed gives byte-identical configs.

Why the inputs look the way they do:

* The optimizer workloads keep the physics and the optimizer seed fixed
  and draw translations e^{-iHs} of the input states from the workload
  seed.  By covariance the optimum, and so every reported
  irreversibility, is the same for every seed, while the matrices the
  program sees change.  On one sweep the optimizer seed alone moved the
  Dykstra work by +-5% (74-82k eigensolves) and the phase alone by +-2%
  (71-73k): more spread between seeds than one run can average out.
* ``frontier`` runs the paper's tradeoff sweep on (|0> + e^{i phi}|1>)/sqrt 2.
  One sweep takes 11-23 s, depending on host load, on one core of the
  2-core Xeon this was written on (numpy 2.4.6, OpenBLAS 0.3.31).  Tilted states cost 66-72 s
  and the same state in a random eigenbasis 34-64 s, which would not fit
  a run.
* ``recovery`` uses two analytic anchors, the default degradation demo
  and a panel of (pure rho, sigma = E(rho)) pairs drawn once from
  PANEL_SEED, with E a random covariant channel; each pair's
  irreversibility is checked against its certified value.
* ``kernels`` draws its trial streams, states and frames from the seed;
  the KI block structures are fixed (see KI_BLOCKS).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from asymmbench.ki import ki_refinement_oracle
from asymmbench.qtypes import (
    DensityMatrix,
    StateFamily,
    SystemSpec,
    apply_channel,
    random_density_matrix,
)
from asymmbench.serialize import matrix_to_json, system_to_json
from asymmbench.symmetry import random_covariant_channel

T_GRID = [math.pi / 4, math.pi / 2, 3 * math.pi / 4]
LAMBDAS = [0.0, 16.0]
# Seed of the optimizer's random starts, fixed (see the module docstring).
OPTIMIZER_SEED = 0

PANEL_SEED = 20240817
PANEL_DIMS = (2, 2, 2, 2, 3, 3)
# Certified lower bound on each panel pair's optimum irreversibility
# (perfbench/certify_panel.py: the optimizer's value exceeds it by at
# most 6e-7).  A run must report at least the bound, and at most
# IRREV_SLACK above it.
PANEL_IRREV = (
    0.0880318557748393,
    0.3295490573338784,
    0.27900540003920726,
    0.15173672563003782,
    0.40132062529305756,
    0.29995798371941396,
)
IRREV_SLACK = 1e-4


@dataclass
class Job:
    """One config plus the check its report must pass."""

    name: str
    config: dict
    check: Callable = None  # (report) -> list of problems
    irrev: Callable = None  # (report) -> list of reported irreversibilities


def _unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def _translate(m: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """e^{-iHs} m e^{iHs} for H = diag(0, 1, ..., d-1) and a random s."""
    phases = np.exp(-1j * np.arange(m.shape[0]) * rng.uniform(0.0, 2 * math.pi))
    return phases[:, None] * m * phases.conj()[None, :]


def _config(experiment: str, seed: int, **params) -> dict:
    return {"schema_version": 1, "experiment": experiment, "seed": seed, **params}


def _witness(report, name: str) -> float:
    return next(a["witness"] for a in report.assertions if a["name"] == name)


# ---------------------------------------------------------------------------
# frontier


def frontier_jobs(seed: int) -> list[Job]:
    """The tradeoff sweep, one job per t.

    Each t is an independent sweep row (its optimizers are seeded from the
    config seed alone), so the three jobs compute exactly the rows of one
    job over the whole grid, in pieces short enough to repeat in a run.
    """
    rng = np.random.default_rng([seed, 1])
    phase = rng.uniform(0.0, 2 * math.pi)
    psi = np.array([1.0, np.exp(1j * phase)]) / math.sqrt(2)

    def check(report):
        rows = len(report.records)
        skipped = _witness(report, "rows_skipped_at_full_shift")
        if rows != len(LAMBDAS) or skipped != 0.0:
            return [f"tradeoff rows {rows} (want {len(LAMBDAS)}), skipped {skipped:g}"]
        return []

    return [
        Job(
            f"tradeoff_t{k}",
            _config(
                "tradeoff",
                OPTIMIZER_SEED,
                state=matrix_to_json(np.outer(psi, psi.conj())),
                t_grid=[t],
                lambda_schedule=LAMBDAS,
            ),
            check,
            lambda r: [rec["irrev"] for rec in r.records],
        )
        for k, t in enumerate(T_GRID)
    ]


# ---------------------------------------------------------------------------
# recovery


def recovery_panel() -> list[tuple[np.ndarray, np.ndarray]]:
    """The fixed (rho, sigma) pairs, in the computational frame."""
    rng = np.random.default_rng(PANEL_SEED)
    pairs = []
    for d in PANEL_DIMS:
        sys_ = SystemSpec.diagonal(range(d))
        rho = DensityMatrix.pure(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        sigma = apply_channel(random_covariant_channel(sys_, sys_, rng), rho)
        pairs.append((rho.mat, sigma.mat))
    return pairs


def _irrev_of(report) -> list[float]:
    return [_witness(report, "irrev_converged")]


def recovery_jobs(seed: int) -> list[Job]:
    rng = np.random.default_rng([seed, 2])
    plus = np.full((2, 2), 0.5, dtype=np.complex128)
    half = np.eye(2, dtype=np.complex128) / 2

    def anchor(name, target, ok, want):
        def check(report):
            got = _witness(report, "irrev_converged")
            return [] if ok(got) else [f"{name}: irrev {got!r}, want {want}"]

        cfg = _config(
            "irrev",
            OPTIMIZER_SEED,
            state=matrix_to_json(plus),
            target=matrix_to_json(target),
        )
        return Job(name, cfg, check, _irrev_of)

    jobs = [
        anchor("anchor_plus_half", half, lambda x: abs(x - 0.5) <= 1e-3, "0.5 +- 1e-3"),
        anchor("anchor_plus_plus", plus, lambda x: x <= 1e-6, "<= 1e-6"),
    ]
    for k, ((rho, sigma), ref) in enumerate(zip(recovery_panel(), PANEL_IRREV)):
        d = rho.shape[0]
        cfg = _config(
            "irrev",
            OPTIMIZER_SEED,
            state=matrix_to_json(_translate(rho, rng)),
            target=matrix_to_json(_translate(sigma, rng)),
            system_from=system_to_json(SystemSpec.diagonal(range(d))),
            system_to=system_to_json(SystemSpec.diagonal(range(d))),
        )

        def check(report, k=k, ref=ref):
            got = _witness(report, "irrev_converged")
            if not ref - 1e-9 <= got <= ref + IRREV_SLACK:
                return [f"pair {k}: irrev {got!r}, certified optimum >= {ref!r}"]
            return []

        jobs.append(Job(f"pair{k}_d{d}", cfg, check, _irrev_of))
    jobs.append(
        Job(
            "degradation",
            _config("degradation", OPTIMIZER_SEED),
            irrev=lambda r: [rec["irrev_lower_bound"] for rec in r.records],
        )
    )
    return jobs


# ---------------------------------------------------------------------------
# kernels

LEMMA8_JOBS = 10

# Planted (m, k) block structures, d = 2..6.  The structures are fixed
# so that each run does the same decomposition work (the block structure
# sets the algebra sizes, and a d = 6 family can move peak memory by
# 6 MB); the seed draws the unitary frame and the states.
KI_BLOCKS = (
    ((1, 1), (1, 1)), ((2, 1),), ((1, 2),),
    ((3, 1),), ((1, 3),), ((2, 1), (1, 1)), ((1, 1), (1, 1), (1, 1)),
    ((2, 2),), ((1, 2), (2, 1)), ((3, 1), (1, 1)), ((1, 4),),
    ((2, 2), (1, 1)), ((3, 1), (1, 2)), ((1, 5),), ((2, 1), (1, 3)),
    ((2, 3),), ((3, 2),), ((2, 2), (1, 2)), ((3, 1), (1, 1), (2, 1)), ((1, 6),),
)


def planted_family(rng: np.random.Generator, blocks, n_states: int = 3) -> list[np.ndarray]:
    """States sum_mu w_mu (L_mu (x) omega_mu), in a random frame, for the given blocks."""
    d = sum(m * k for m, k in blocks)
    q = _unitary(d, rng)
    omegas = [random_density_matrix(k, k, rng).mat for _, k in blocks]
    states = []
    for _ in range(n_states):
        weights = rng.dirichlet(np.ones(len(blocks)))
        full = np.zeros((d, d), dtype=np.complex128)
        off = 0
        for w, (m, k), omega in zip(weights, blocks, omegas):
            left = random_density_matrix(m, m, rng).mat
            full[off : off + m * k, off : off + m * k] = w * np.kron(left, omega)
            off += m * k
        out = q @ full @ q.conj().T
        states.append((out + out.conj().T) / 2)
    return states


def _ki_job(name: str, seed: int, states, planted) -> Job:
    oracle = {}

    def check(report):
        got = sorted((rec["m"], rec["k"]) for rec in report.records)
        if "dims" not in oracle:
            fam = StateFamily(
                tuple(DensityMatrix(s) for s in states),
                tuple(f"s{i}" for i in range(len(states))),
            )
            oracle["dims"] = sorted(ki_refinement_oracle(fam).block_dims)
        if got != planted or got != oracle["dims"]:
            return [f"{name}: blocks {got}, planted {planted}, oracle {oracle['dims']}"]
        return []

    cfg = _config("ki", seed, states=[matrix_to_json(s) for s in states])
    return Job(name, cfg, check)


def kernels_jobs(seed: int) -> list[Job]:
    rng = np.random.default_rng([seed, 3])

    def n_check(report):
        n = _witness(report, "cloner_superadditivity_violated")
        return [] if n == 14.0 else [f"smallest cloner n {n:g}, want 14"]

    def l8_check(report):
        worst = _witness(report, "perturbation_bound")
        return [] if worst <= 1e-9 else [f"lemma8 max violation {worst!r} > 1e-9"]

    # lemma8's 1e4 trials run as LEMMA8_JOBS jobs of equal size.
    jobs = [
        Job(
            f"lemma8_{i}",
            _config("lemma8", int(rng.integers(2**31)), trials=10_000 // LEMMA8_JOBS),
            l8_check,
        )
        for i in range(LEMMA8_JOBS)
    ]
    jobs += [
        Job("nonadditivity", _config("nonadditivity", int(rng.integers(2**31))), n_check),
        Job("cloner", _config("cloner", int(rng.integers(2**31)))),
    ]
    for mode in ("identity_prepare", "move", "cloner"):
        jobs.append(
            Job(f"complementarity_{mode}", _config("complementarity", 0, mode=mode, dim=3))
        )
    for i, blocks in enumerate(KI_BLOCKS):
        states = planted_family(rng, blocks)
        name = f"ki{i}_d{len(states[0])}"
        jobs.append(_ki_job(name, int(rng.integers(2**31)), states, sorted(blocks)))
    return jobs


JOBS = {"frontier": frontier_jobs, "recovery": recovery_jobs, "kernels": kernels_jobs}
