"""Numerical workbench for the resource theory of translation asymmetry."""

__version__ = "0.1.0"

RNG_ALGORITHM = "numpy-pcg64"

from .qtypes import (  # noqa: E402,F401
    Channel,
    DensityMatrix,
    StateFamily,
    SystemSpec,
    apply_channel,
    induce_channel,
    random_density_matrix,
    tensor_system,
)
from .symmetry import (  # noqa: E402,F401
    is_covariant_channel,
    is_symmetric_state,
    measure_ft,
    random_covariant_channel,
    skew_information,
    time_translate,
    twirl_channel,
    twirl_state,
)
from .ki import ki_decompose, orbit_family  # noqa: E402,F401
from .optimize import (  # noqa: E402,F401
    max_recovery_fidelity,
    optimize_broadcast,
    petz_recovery,
    project_covariant_tp_psd,
)
