"""Harmonic-analytic potential theory of additive Levy processes.

Submodules:

- ``exponents``   characteristic exponents and the product kernel
- ``measures``    atomic probability measures and set discretizers
- ``kernels``     Riesz kernels, the Lambda kernel, one-potential densities
- ``energy``      real- and Fourier-side energy functionals
- ``equilibrium`` energy minimization over the simplex, capacities
- ``classify``    hitting / intersection / dimension criteria
- ``simulate``    Monte Carlo oracles for the classifiers
- ``cli``         batch command-line front end
"""

from addlevy.exponents import (
    BrownianIsotropic,
    ExponentVector,
    IsotropicStable,
    PureDrift,
    Skewed1DStable,
    SumOf,
    sector_constant,
)
from addlevy.measures import AtomicMeasure, SetDiscretization, discretize
from addlevy.kernels import (
    Kernel,
    PotentialDensity,
    kernel_sup_check,
    lambda_bruteforce,
    lambda_closed,
    potential_density_v,
    riesz_constant,
    riesz_kernel,
)
from addlevy.quadrature import QuadratureSpec
from addlevy.energy import (
    EnergyReport,
    energy_fourier,
    energy_identity_check,
    mutual_energy_real,
    sojourn_second_moment,
)
from addlevy.equilibrium import (
    EnergyMatrix,
    EquilibriumResult,
    assemble_matrix,
    bessel_riesz_capacity,
    point_capacity_test,
    solve_equilibrium,
)
from addlevy.classify import (
    ConvergenceVerdict,
    StableSystem,
    intersection_dimension,
    intersections_exist,
    multiple_points_allowed,
    numeric_intersection_dimension,
    range_dimension,
    range_has_positive_measure,
    subordinator_meet,
)
from addlevy.simulate import (
    MCConfig,
    MCEstimate,
    box_dimension_estimate,
    hitting_frequency,
    intersection_frequency,
    sample_isotropic_stable_path,
    sample_stable_increment,
    sojourn_mc,
)

__version__ = "0.1.0"
