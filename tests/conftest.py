"""Test-wide conservation audit and the numeric reference spectrum.

Every TransferState produced through evolve anywhere in the suite gets
its total probability logged; the acceptance test for probability
conservation asserts over the accumulated log.  The wrap happens at
conftest import, before any test module binds the name.

eigh_spectrum is the independent route that System.spectrum() and the
sign-basis kernel are checked against: the numeric eigh of the layout's
coupling matrix.
"""

import spintransfer
import spintransfer.dynamics as dynamics
import spintransfer.verify as verify
from spintransfer.geometry import coupling_matrix
from spintransfer.hamiltonian import build_D, diagonalize

CONSERVATION_LOG = []


def eigh_spectrum(system):
    """Numeric spectrum of D (eigh) from the system's layout."""
    return diagonalize(build_D(coupling_matrix(system.layout())))


def _audit(state):
    CONSERVATION_LOG.append(float(abs(state.probabilities.sum() - 1.0)))
    return state


_evolve = dynamics.evolve


def _audited_evolve(spectrum, k0, tau):
    return _audit(_evolve(spectrum, k0, tau))


# Rebind every module-level alias that exists at this point.
dynamics.evolve = _audited_evolve
spintransfer.evolve = _audited_evolve
verify.evolve = _audited_evolve
