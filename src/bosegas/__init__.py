"""bosegas: numerical laboratory for rigorous Bose-gas ground-state theory.

Scattering-length solvers, closed-form energy bounds for the homogeneous
dilute gas (3D and 2D), Temple/cell-method lower-bound machinery,
Gross-Pitaevskii and Thomas-Fermi variational solvers with their scaling
laws, and the Bogolubov pairing treatment of the charged gas.
"""

__version__ = "0.1.0"

from .errors import BoseGasError, DomainError
from .numerics import RadialGrid, Tolerances, find_root, integrate_ode, quad
from .potentials import (
    HARD_CORE,
    PairPotential,
    TrapPotential,
    pair_value,
    parse_pair_potential,
    parse_trap_potential,
    tail_integrability,
    trap_value,
)
from .scattering import (
    ScatteringSolution,
    born_integral,
    energy_integral,
    kinetic_fraction,
    scattering_length,
    solve_zero_energy,
)
from .homogeneous import (
    CellMethodParams,
    DiluteParams,
    EnergyEstimate,
    cell_energy_factor,
    cell_lower_bound,
    cell_lower_ratio,
    dilute_lower_ratio,
    dyson_upper_ratio,
    leading_energy,
    lhy_energy,
    log_quadratic_gap,
    occupation_minimum,
    schick_2d_bounds,
    softened_interaction,
    temple_bound,
)
from .gp import (
    GpState,
    TfState,
    chemical_potential,
    coupling_2d,
    gp_minimize,
    gp_residual,
    gp_tf_limit,
    mean_density,
    tf_energy,
    tf_scaling,
    tf_solve,
)
from .bogolubov import (
    BogolubovMode,
    FoldyParams,
    fock_oracle,
    foldy_dimensionless_integral,
    foldy_energy,
    foldy_mode_integrand,
    kinetic_cutoff,
    pair_mode_bound,
    two_component_scaling,
    yukawa_ft,
)
