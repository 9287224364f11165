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

from . import closedforms, dynamics, entanglement, geometry, hamiltonian, search, verify
from .closedforms import *
from .dynamics import *
from .entanglement import *
from .geometry import *
from .hamiltonian import *
from .search import *
from .verify import *

__version__ = "0.1.0"

# The package re-exports the public names of every library module, as each
# module's __all__ declares them; cli stays off, so main is not exported.
__all__ = [
    *closedforms.__all__,
    *dynamics.__all__,
    *entanglement.__all__,
    *geometry.__all__,
    *hamiltonian.__all__,
    *search.__all__,
    *verify.__all__,
]
