"""Single-excitation transfer and entanglement in small dipolar spin clusters.

The package follows one pipeline: lay out nodes and their dipolar
couplings (geometry), build and diagonalize the single-excitation block
of the Hamiltonian (hamiltonian), evolve an initially localized
excitation on a time grid (dynamics), score the resulting states by
transfer probability and entanglement (entanglement, closedforms), and
search coupling-strength space for geometries where every node is
reached with high probability (search).  For the pair, the rectangle and
the box every eigenvector is a sign pattern, so System.spectrum() and
every probability grid come from the closed-form first coupling row;
the layouts and the numeric eigh stay as the reference.  verify
cross-checks the independent code paths against each other; cli exposes
everything as subcommands.
"""

from .closedforms import cube_P, rect_P, two_node_P
from .dynamics import (
    TransferState,
    amplitude_grid,
    density_element,
    evolve,
    fidelity,
    sign_probability_grid,
    tau_grid,
)
from .entanglement import (
    Bipartition,
    concurrence,
    concurrence_oracle,
    negativity,
    negativity_grid,
    negativity_oracle,
    sigma,
)
from .geometry import (
    FIELD_ALONG_B,
    FIELD_PERPENDICULAR,
    CouplingMatrix,
    NodeLayout,
    b_to_delta,
    coupling_matrix,
    delta_to_b,
    layout_chain2,
    layout_parallelepiped,
    layout_rectangle,
)
from .hamiltonian import (
    Spectrum,
    build_D,
    diagonalize,
    sign_basis,
)
from .search import (
    DISPLAY_MARGIN,
    PeakRecord,
    SweepResult,
    System,
    coupling_rows,
    fn_value,
    fp_value,
    hpst_times,
    sweep1d,
    sweep2d,
)
from .verify import SuiteResult, run_all

__version__ = "0.1.0"

__all__ = [
    "Bipartition",
    "CouplingMatrix",
    "DISPLAY_MARGIN",
    "FIELD_ALONG_B",
    "FIELD_PERPENDICULAR",
    "NodeLayout",
    "PeakRecord",
    "Spectrum",
    "SuiteResult",
    "SweepResult",
    "System",
    "TransferState",
    "amplitude_grid",
    "b_to_delta",
    "build_D",
    "concurrence",
    "concurrence_oracle",
    "coupling_matrix",
    "coupling_rows",
    "cube_P",
    "delta_to_b",
    "density_element",
    "diagonalize",
    "evolve",
    "fidelity",
    "fn_value",
    "fp_value",
    "hpst_times",
    "layout_chain2",
    "layout_parallelepiped",
    "layout_rectangle",
    "negativity",
    "negativity_grid",
    "negativity_oracle",
    "rect_P",
    "run_all",
    "sigma",
    "sign_basis",
    "sign_probability_grid",
    "sweep1d",
    "sweep2d",
    "tau_grid",
    "two_node_P",
]
