"""Centralized numerical tolerances.

Single knob for the whole stack: structural validation of quantum
objects and rank/support cutoffs.
"""

# Structural validation (Hermiticity, positivity, trace) of states and channels.
TOL_STRUCT = 1e-9

# Support cutoff: eigenvalues below this are exact zeros, excluded from inversion.
TOL_RANK = 1e-12
