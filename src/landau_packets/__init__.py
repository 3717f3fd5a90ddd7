"""Landau-level wave packets: cyclotron motion and spin precession
reconstructed from quantum expectation values, with classical references
and an independent quadrature oracle."""

from .classical import (
    ClassicalReference,
    ClassicalState,
    bmt_integrate,
    classical_reference,
)
from .errors import (
    AccuracyError,
    DomainError,
    IntegrationAccuracyError,
    QuadratureAccuracyError,
    SingularConfigurationError,
)
from .evolution import (
    EXACT,
    UNIFORM_GAP,
    closed_form_momentum,
    closed_form_spin,
    closed_form_trajectory,
    evolve_packet,
    expectation_series,
    polarization_series,
    relative_energies,
    sample_times,
)
from .kinematics import (
    DEFAULT_ANOMALY,
    SCALAR,
    SPINOR,
    FieldConfig,
    SpinKinematics,
    energy_scalar,
    energy_spinor,
    level_energy,
    transverse_momentum,
)
from .laguerre import (
    fit_decay_exponent,
    laguerre_I,
    momentum_element_quadrature,
    orthonormality_defect,
    semiclassical_convergence,
)
from .operators import build_operator_band
from .packets import (
    PacketSpec,
    StructureSums,
    build_scalar_packet,
    build_spinor_packet,
    contrast_factor,
    normalization_defect,
    structure_sums,
)
from .trajectory import Trajectory, compare_trajectories

__version__ = "0.1.0"
