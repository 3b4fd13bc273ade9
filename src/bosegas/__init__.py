"""bosegas: numerical laboratory for rigorous Bose-gas ground-state theory.

Scattering-length solvers, closed-form energy bounds for the homogeneous
dilute gas (3D and 2D), the 3D Temple/cell-method lower-bound machinery,
Gross-Pitaevskii and Thomas-Fermi variational solvers with their scaling
laws, and the Bogolubov pairing treatment of the charged gas.

The public names are lazy (PEP 562): `import bosegas` loads no numpy and no
solver module, and the first use of a name, as in `from bosegas import
PairPotential`, imports the module that defines it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": "BoseGasError DomainError",
    "numerics": "Tolerances integrate_ode quad",
    "potentials": "HARD_CORE PairPotential TrapPotential born_integral "
    "pair_value parse_pair_potential parse_trap_potential tail_integrability "
    "trap_value",
    "scattering": "ScatteringSolution energy_integral kinetic_fraction "
    "solve_zero_energy",
    "homogeneous": "CellConstruction DiluteParams cell_construction "
    "cell_energy_factor cell_lower_bound cell_lower_ratio dilute_lower_ratio "
    "dyson_upper_ratio leading_energy lhy_energy log_quadratic_gap "
    "occupation_minimum schick_2d_bounds temple_bound",
    "gp": "GpState TfState gp_minimize gp_residual gp_tf_limit "
    "mean_density tf_scaling tf_solve",
    "bogolubov": "BogolubovMode fock_oracle "
    "foldy_dimensionless_integral foldy_energy foldy_mode_integrand "
    "kinetic_cutoff two_component_scaling yukawa_ft",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    # an unknown name raises AttributeError: `from . import gp` then falls
    # through to the import system
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    return getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
