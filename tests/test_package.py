"""The package namespace re-exports every library module's public names."""

import spintransfer
from spintransfer import closedforms, dynamics, entanglement, geometry, hamiltonian, search, verify

LIBRARY_MODULES = [closedforms, dynamics, entanglement, geometry, hamiltonian, search, verify]

# spintransfer.__all__ as it stood when __init__ listed every name itself
LISTED_NAMES = [
    "Bipartition", "CouplingMatrix", "DISPLAY_MARGIN", "FIELD_ALONG_B", "FIELD_PERPENDICULAR",
    "NodeLayout", "PeakRecord", "Spectrum", "SuiteResult", "SweepResult", "System",
    "TransferState", "amplitude_grid", "b_to_delta", "build_D", "concurrence",
    "concurrence_oracle", "coupling_matrix", "coupling_rows", "cube_P", "delta_to_b",
    "density_element", "diagonalize", "evolve", "fidelity", "fn_value", "fp_value",
    "hpst_times", "layout_chain2", "layout_parallelepiped", "layout_rectangle", "negativity",
    "negativity_grid", "negativity_oracle", "rect_P", "run_all", "sigma", "sign_basis",
    "sign_probability_grid", "sweep1d", "sweep2d", "tau_grid", "two_node_P",
]


def test_every_listed_name_is_still_the_defining_modules_object():
    assert len(set(LISTED_NAMES)) == 43
    for name in LISTED_NAMES:
        assert name in spintransfer.__all__
        defining = [module for module in LIBRARY_MODULES if name in module.__all__]
        assert len(defining) == 1, name
        assert getattr(spintransfer, name) is getattr(defining[0], name)


def test_package_all_is_the_library_modules_all():
    expected = [name for module in LIBRARY_MODULES for name in module.__all__]
    assert spintransfer.__all__ == expected
    assert len(set(expected)) == len(expected)
    suites = {"suite_closed_forms", "suite_concurrence", "suite_negativity", "suite_spectra"}
    assert set(expected) - set(LISTED_NAMES) == {"KINDS", *suites}
    assert "main" not in expected and not hasattr(spintransfer, "main")
    namespace = {}
    exec("from spintransfer import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(expected)
    assert spintransfer.__version__ == "0.1.0"
