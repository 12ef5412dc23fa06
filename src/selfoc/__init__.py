"""Mode coupling between graded-index (selfoc) waveguides.

Light crossing from one quadratic-index guide into a displaced,
stretched, and optionally cross-coupled one redistributes its energy
among the guided modes of the second guide.  The guided modes are
harmonic-oscillator eigenfunctions, so every connection coefficient is
an oscillator overlap integral; this package evaluates them along two
independent routes (a closed form built on two-index Hermite
polynomials, and Gauss-Hermite quadrature), builds 1D/2D transition
spectra, coupling matrices, a semiclassical vertical-transition
estimate, and a Schmidt-entropy report for two-channel correlation.
"""

from .coupling1d import (
    CouplingMatrix,
    Spectrum,
    Transition1D,
    coupling_matrix,
    fc_candidates,
    fc_estimate,
    overlap_closed,
    spectrum1d,
)
from .coupling2d import (
    CouplingTensor,
    SchmidtReport,
    Waveguide2D,
    coupled_tensor,
    overlap_coupled,
    overlap_quad,
    schmidt_report,
    spectrum2d_separable,
)
from .errors import (
    CapExceededError,
    ConvergenceError,
    NotPositiveDefiniteError,
    NumericOverflowError,
    PartialResultError,
)
from .hermite import (
    MODE_INDEX_CAP,
    OscillatorFrame,
    OverlapKernel,
    build_kernel,
    scaled_hermite_table,
)

__version__ = "0.1.0"

__all__ = [
    "MODE_INDEX_CAP",
    "CapExceededError",
    "ConvergenceError",
    "CouplingMatrix",
    "CouplingTensor",
    "NotPositiveDefiniteError",
    "NumericOverflowError",
    "OscillatorFrame",
    "OverlapKernel",
    "PartialResultError",
    "SchmidtReport",
    "Spectrum",
    "Transition1D",
    "Waveguide2D",
    "build_kernel",
    "coupled_tensor",
    "coupling_matrix",
    "fc_candidates",
    "fc_estimate",
    "overlap_closed",
    "overlap_coupled",
    "overlap_quad",
    "scaled_hermite_table",
    "schmidt_report",
    "spectrum1d",
    "spectrum2d_separable",
]
