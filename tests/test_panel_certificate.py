"""The recovery certificate agrees with the benchmark's own.

perfbench/certify_panel.py certifies the optimum of each ``recovery``
panel pair with a dual bound built from the optimizer's Choi matrix, and
the benchmark checks reported irreversibilities against those bounds
(``workloads.PANEL_IRREV``).  Importing the script here also makes a
change to the optimizer's API that would break it fail the test suite.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from certify_panel import certify  # noqa: E402
from workloads import IRREV_SLACK, PANEL_IRREV, recovery_panel  # noqa: E402

from asymmbench.optimize import max_recovery_fidelity  # noqa: E402
from asymmbench.qtypes import DensityMatrix, SystemSpec  # noqa: E402


@pytest.mark.parametrize("k", range(len(PANEL_IRREV)))
def test_panel_pair(k):
    rho, sigma = recovery_panel()[k]
    system = SystemSpec.diagonal(range(rho.shape[0]))
    res = max_recovery_fidelity(DensityMatrix(rho), DensityMatrix(sigma), system, system)
    _, lower, _, _ = certify(rho, sigma)
    assert res.converged
    assert abs(res.irrev_lower - lower) <= 1e-10
    assert PANEL_IRREV[k] - 1e-9 <= res.value <= PANEL_IRREV[k] + IRREV_SLACK
