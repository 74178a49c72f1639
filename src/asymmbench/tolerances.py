"""The shared structural and rank cutoffs.

Used by linalg, qtypes, optimize and ki.  Each check's own bound lives
beside it: in experiments, ki, optimize and symmetry.
"""

# Structural validation (Hermiticity, positivity, trace) of states and channels.
TOL_STRUCT = 1e-9

# Support cutoff: eigenvalues below this are exact zeros, excluded from inversion.
TOL_RANK = 1e-12
