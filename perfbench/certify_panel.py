"""Certify the optimum irreversibility of each ``recovery`` panel pair.

    python3 perfbench/certify_panel.py

For a pure target psi, F^2 = Tr[(psi psi+ (x) sigma^T) J] is linear in the
Choi matrix J of the recovery, so the best covariant recovery solves an
SDP whose dual gives an upper bound: any Hermitian Y with
I (x) Y >= twirl(G) certifies F^2 <= Tr Y.  Starting from the
optimizer's J, Y0 = herm(Tr_out(twirl(G) J)) shifted by
lambda_max(twirl(G) - I (x) Y0) is such a Y.  The script prints, per
pair, the optimizer's irreversibility 1 - F^2, the certified lower bound
1 - Tr Y and their gap; ``workloads.PANEL_IRREV`` holds the lower bounds.
"""
import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from asymmbench.linalg import partial_trace  # noqa: E402
from asymmbench.optimize import max_recovery_fidelity  # noqa: E402
from asymmbench.qtypes import DensityMatrix, SystemSpec  # noqa: E402
from asymmbench.symmetry import CovarianceSector  # noqa: E402

from workloads import recovery_panel  # noqa: E402


def certify(rho: np.ndarray, sigma: np.ndarray):
    d = rho.shape[0]
    system = SystemSpec.diagonal(range(d))
    res = max_recovery_fidelity(DensityMatrix(rho), DensityMatrix(sigma), system, system)
    j = res.best_recovery.choi
    g = CovarianceSector.for_channel(system, system).dephase(np.kron(rho, sigma.T))
    y0 = partial_trace(g @ j, [d, d], keep=[1])
    y0 = (y0 + y0.conj().T) / 2
    shift = float(np.linalg.eigvalsh(g - np.kron(np.eye(d), y0))[-1])
    f2_upper = float(np.trace(y0).real) + d * shift
    f2 = float(np.trace(g @ j).real)
    return res.value, 1.0 - f2_upper, f2_upper - f2, res.converged


if __name__ == "__main__":
    for k, (rho, sigma) in enumerate(recovery_panel()):
        irrev, lower, gap, converged = certify(rho, sigma)
        print(f"pair {k} d={rho.shape[0]}: irrev {irrev!r} certified >= {lower!r} "
              f"gap {gap:.2e} converged {converged}")
