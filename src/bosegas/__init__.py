"""bosegas: numerical laboratory for rigorous Bose-gas ground-state theory.

Scattering-length solvers, closed-form energy bounds for the homogeneous
dilute gas (3D and 2D), the 3D Temple/cell-method lower-bound machinery,
Gross-Pitaevskii and Thomas-Fermi variational solvers with their scaling
laws, and the Bogolubov pairing treatment of the charged gas.

Each public name is imported from the module that defines it, as in `from
bosegas.potentials import PairPotential`: `import bosegas` loads nothing
else.
"""

__version__ = "0.1.0"
