"""Acceptance criteria: one test per criterion, stated tolerances, budgets.

Each test prints a single PASS/FAIL line (visible with pytest -s or in
the captured output) and enforces its runtime budget.
"""
import json
import math
import time

import numpy as np

from asymmbench.experiments import (
    check_fidelity_perturbation_lemma,
    cloner_shrink_factor,
    run_degradation_demo,
    run_no_broadcast_sweep,
    run_nonadditivity,
    run_tradeoff_sweep,
    twirled_partial_swap,
    universal_cloner,
)
from asymmbench.ki import (
    ehrenfest_constancy_check,
    ki_decompose,
    ki_refinement_oracle,
    orbit_family,
    reconstruct_state,
)
from asymmbench.linalg import trace_norm
from asymmbench.optimize import OptimizerConfig, max_recovery_fidelity
from asymmbench.qtypes import (
    DensityMatrix,
    StateFamily,
    SystemSpec,
    apply_channel,
    random_density_matrix,
)
from asymmbench.symmetry import (
    measure_ft,
    random_covariant_channel,
    skew_information,
)

from conftest import random_integer_system, random_structured_family, witness

QUBIT = SystemSpec.diagonal([0, 1])
PLUS = DensityMatrix.pure([1, 1])
ZERO = DensityMatrix.pure([1, 0])
HALF = DensityMatrix.maximally_mixed(2)


def all_passed(*outcomes) -> bool:
    return all(a.passed for _, assertions in outcomes for a in assertions)


def report(criterion, passed, elapsed, budget, detail):
    line = (
        f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} "
        f"({elapsed:.1f}s of {budget:.0f}s budget; {detail})"
    )
    print(line)
    assert passed, line
    assert elapsed < budget, f"{line} -- runtime budget exceeded"


def test_criterion_01_cloner_marginal_formula(rng):
    start = time.perf_counter()
    worst = 0.0
    for d in (2, 3):
        for n in range(1, 5):
            if d**n > 1024:
                continue
            states = [DensityMatrix.maximally_mixed(d)]
            for _ in range(3):
                states.append(random_density_matrix(d, int(rng.integers(1, d + 1)), rng))
            for rho in states:
                res = universal_cloner(rho, n)
                worst = max(worst, res.marginal_error, res.trace_error)
    spot = abs(cloner_shrink_factor(2, 2) - 2 / 3)
    elapsed = time.perf_counter() - start
    report(
        "1 (cloner marginal formula)",
        worst <= 1e-10 and spot < 1e-15,
        elapsed,
        10,
        f"max error {worst:.2e}, c2(d=2) spot dev {spot:.1e}",
    )


def test_criterion_02_measure_monotonicity(rng):
    start = time.perf_counter()
    violations = 0
    worst = -np.inf
    for _ in range(1000):
        d_in = int(rng.choice([2, 3]))
        d_out = int(rng.choice([2, 3]))
        sys_in = random_integer_system(d_in, rng)
        sys_out = sys_in if d_out == d_in else random_integer_system(d_out, rng)
        ch = random_covariant_channel(sys_in, sys_out, rng)
        rho = random_density_matrix(d_in, int(rng.integers(1, d_in + 1)), rng)
        out = apply_channel(ch, rho)
        t = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        gap_ft = measure_ft(out, sys_out, t) - measure_ft(rho, sys_in, t)
        worst = max(worst, gap_ft)
        if gap_ft > 1e-9:
            violations += 1
        if sys_out is sys_in:
            gap_skew = skew_information(out, sys_out) - skew_information(rho, sys_in)
            worst = max(worst, gap_skew)
            if gap_skew > 1e-9:
                violations += 1
    elapsed = time.perf_counter() - start
    report(
        "2 (measure monotonicity, 1000 covariant channels)",
        violations == 0,
        elapsed,
        60,
        f"violations {violations}, worst gap {worst:.2e}",
    )


def test_criterion_03_fidelity_perturbation_bound():
    start = time.perf_counter()
    res = check_fidelity_perturbation_lemma(
        np.random.default_rng(2024), trials=10_000, dims=(2, 3, 4)
    )
    worst = witness(res[1], "perturbation_bound")
    elapsed = time.perf_counter() - start
    report(
        "3 (fidelity perturbation bound, 1e4 trials)",
        worst <= 1e-9 and all_passed(res),
        elapsed,
        120,
        f"max violation {worst:.2e}",
    )


def test_criterion_04_no_broadcasting():
    start = time.perf_counter()
    res = run_no_broadcast_sweep(PLUS, QUBIT, QUBIT)
    records, assertions = res
    smallest = min(r["marginal_disturbance"] for r in records)
    coherence = witness(assertions, "smallest_bucket_coherence")
    disturbance = witness(assertions, "classical_disturbance")
    coherence_gap = witness(assertions, "classical_full_coherence")
    ok = (
        all_passed(res)
        and smallest <= 1e-5
        and coherence <= 1e-4
        and disturbance <= 1e-8
        and coherence_gap <= 1e-9
    )
    elapsed = time.perf_counter() - start
    report(
        "4 (no-broadcasting frontier + classical control)",
        ok,
        elapsed,
        600,
        f"smallest disturbance {smallest:.1e} coherence {coherence:.2e}, "
        f"classical dist {disturbance:.1e} coherence gap {coherence_gap:.1e}",
    )


def test_criterion_05_tradeoff_relation():
    start = time.perf_counter()
    res = run_tradeoff_sweep(PLUS, QUBIT, QUBIT)
    records, assertions = res
    worst_slack = min((r["slack"] for r in records if r["converged"]), default=0.0)
    with_pi = run_tradeoff_sweep(
        PLUS, QUBIT, QUBIT, t_grid=(math.pi / 2, math.pi), lambda_schedule=(0.0,)
    )
    pi_records, pi_assertions = with_pi
    skip_exact = (
        witness(pi_assertions, "rows_skipped_at_full_shift") == 1.0
        and [r["t"] for r in pi_records] == [math.pi / 2]
    )
    no_skip = witness(assertions, "rows_skipped_at_full_shift") == 0.0
    elapsed = time.perf_counter() - start
    report(
        "5 (tradeoff relation sweep)",
        worst_slack >= -1e-6 and skip_exact and no_skip and all_passed(res, with_pi),
        elapsed,
        600,
        f"worst slack {worst_slack:.2e}, rows {len(records)}, pi-skip {skip_exact}",
    )


def test_criterion_06_irreversibility_optimizer():
    start = time.perf_counter()
    r_plus = max_recovery_fidelity(PLUS, HALF, QUBIT, QUBIT)
    r_same = max_recovery_fidelity(PLUS, PLUS, QUBIT, QUBIT)
    r_zero = max_recovery_fidelity(ZERO, HALF, QUBIT, QUBIT)
    ok = (
        abs(r_plus.value - 0.5) <= 1e-3
        and r_same.value <= 1e-6
        and r_zero.value <= 1e-6
        and r_plus.converged
        and r_same.converged
        and r_zero.converged
    )
    elapsed = time.perf_counter() - start
    report(
        "6 (irreversibility optimizer)",
        ok,
        elapsed,
        120,
        f"irrev(|+>,I/2)={r_plus.value:.6f}, irrev(rho,rho)={r_same.value:.1e}, "
        f"irrev(|0>,I/2)={r_zero.value:.1e}",
    )


def test_criterion_07_ki_decomposition():
    start = time.perf_counter()
    rng = np.random.default_rng(777)

    single = random_density_matrix(3, 3, rng)
    dec_single = ki_decompose(StateFamily((single,), ("a",)))
    ok = dec_single.block_dims == [(1, 3)]

    r1 = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
    r2 = DensityMatrix(np.diag([0.2, 0.8]).astype(complex))
    ok &= ki_decompose(StateFamily((r1, r2), ("a", "b"))).block_dims == [(1, 1), (1, 1)]

    orbit = orbit_family(PLUS, QUBIT)
    ok &= ki_decompose(orbit).block_dims == [(2, 1)]

    mismatches = 0
    worst_recon = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 7))
        fam, planted = random_structured_family(rng, d)
        dec = ki_decompose(fam)
        oracle = ki_refinement_oracle(fam)
        if dec.block_dims != oracle.block_dims or dec.block_dims != planted:
            mismatches += 1
        for x in range(len(fam.states)):
            worst_recon = max(
                worst_recon,
                0.5 * trace_norm(fam.states[x].mat - reconstruct_state(dec, x)),
            )
    ok &= mismatches == 0 and worst_recon <= 1e-7

    worst_ehrenfest = 0.0
    grid = list(np.linspace(0, 2 * math.pi, 17))
    for rho, sys in [
        (PLUS, QUBIT),
        (random_density_matrix(2, 2, rng), QUBIT),
        (random_density_matrix(3, 2, rng), SystemSpec.diagonal([0, 1, 2])),
    ]:
        fam = orbit_family(rho, sys)
        dec = ki_decompose(fam)
        worst_ehrenfest = max(worst_ehrenfest, ehrenfest_constancy_check(dec, rho, sys, grid))
    ok &= worst_ehrenfest <= 1e-7

    elapsed = time.perf_counter() - start
    report(
        "7 (KI decomposition vs oracle)",
        ok,
        elapsed,
        300,
        f"mismatches {mismatches}/100, worst reconstruction {worst_recon:.2e}, "
        f"ehrenfest {worst_ehrenfest:.2e}",
    )


def test_criterion_08_nonadditivity():
    start = time.perf_counter()
    res = run_nonadditivity()
    records, assertions = res
    bell = next(
        r for r in records
        if r["construction"] == "EntangledSubadditivity" and r["measure"] == "skew_information"
    )
    cloner_n = witness(assertions, "cloner_superadditivity_violated")
    ok = (
        all_passed(res)
        and abs(bell["f_joint"] - 1.0) < 1e-10
        and bell["f_margA"] == 0.0
        and cloner_n == 14.0
    )
    elapsed = time.perf_counter() - start
    report(
        "8 (non-additivity, three constructions)",
        ok,
        elapsed,
        30,
        f"bell joint {bell['f_joint']:.3f}, smallest cloner n {cloner_n:g}",
    )


def test_criterion_09_degradation_demo():
    start = time.perf_counter()
    lam = twirled_partial_swap(QUBIT, QUBIT, math.pi / 4)
    res = run_degradation_demo(lam, PLUS, QUBIT, QUBIT)
    [rec], _ = res
    ok = (
        all_passed(res)
        and not rec["induced_covariant"]
        and rec["induced_witness"] > 0.01
        and rec["converged"]
        and rec["irrev_lower_bound"] > 1e-3
    )
    elapsed = time.perf_counter() - start
    report(
        "9 (asymmetry degradation demo)",
        ok,
        elapsed,
        300,
        f"induced witness {rec['induced_witness']:.3f}, irrev {rec['irrev_lower_bound']:.4f}",
    )


def test_criterion_10_determinism():
    start = time.perf_counter()

    def one_round():
        fast = OptimizerConfig(max_iter=60)
        lam = twirled_partial_swap(QUBIT, QUBIT, math.pi / 4)
        results = {
            "no_broadcast": run_no_broadcast_sweep(
                PLUS, QUBIT, QUBIT, lambda_schedule=(0.0, 16.0), optimizer=fast
            ),
            "tradeoff": run_tradeoff_sweep(
                PLUS, QUBIT, QUBIT,
                t_grid=(math.pi / 2,), lambda_schedule=(0.0, 16.0), optimizer=fast,
            ),
            "nonadditivity": run_nonadditivity(),
            "degradation": run_degradation_demo(lam, PLUS, QUBIT, QUBIT),
            "lemma8": check_fidelity_perturbation_lemma(np.random.default_rng(5), trials=500),
        }
        out = {name: records for name, (records, _) in results.items()}
        irr = max_recovery_fidelity(PLUS, HALF, QUBIT, QUBIT, fast.max_iter)
        out["irrev"] = tuple({"iteration": i, "fidelity": v} for i, v in irr.fidelity_trace)
        rng = np.random.default_rng(31)
        fam, _ = random_structured_family(rng, 4)
        dec = ki_decompose(fam)
        out["ki"] = tuple(
            {"block": mu, "m": blk.m, "k": blk.k} for mu, blk in enumerate(dec.blocks)
        )
        return json.dumps(out, sort_keys=True, default=repr), all_passed(*results.values())

    first, first_passed = one_round()
    second, second_passed = one_round()
    elapsed = time.perf_counter() - start
    report(
        "10 (determinism: byte-identical record sets)",
        first == second and first_passed and second_passed,
        elapsed,
        600,
        f"payload bytes {len(first)}",
    )
