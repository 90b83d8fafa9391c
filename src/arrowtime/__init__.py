"""Arrow-of-time operators for half-line Hamiltonians.

A pair of complementary operators built from the singular kernel
1/(E - E' + i0+): the forward one has a monotonically decreasing expectation
value for every state, the backward one the mirror property, and together
they resolve the identity.  The package provides the discretized kernels,
expectation traces, the analytic eigenvalue representation, an independent
half-line Fourier oracle, scattering-equivalence checks for contact
potentials, a discrete time-operator comparison, and a CLI that emits all of
it as CSV data.
"""

from .grids import (
    ChannelState,
    EnergyGrid,
    MomentumState,
    energy_to_momentum,
    inner_product,
    make_energy_grid,
    momentum_to_energy,
)
from .states import (
    GaussianPacketParams,
    default_packet_grid,
    default_profile_grid,
    evolve,
    exponential_profile,
    gaussian_channel_state,
    gaussian_momentum_state,
    gaussian_position_density,
    random_smooth_state,
)
from .kernel import (
    LyapunovTrace,
    MonotonicityError,
    SingularKernel,
    antisymmetry_defect,
    build_kernel,
    lyapunov_trace,
    mf_expectation,
    mpc_commutator_defect,
    pairing_defect,
)
from .hardy import (
    forward_component,
    mf_expectation_oracle,
    tail_density,
)
from .mrep import (
    MDistribution,
    MGrid,
    backward_running_probability,
    default_spectral_grid,
    eigen_residual,
    eigenfunction,
    from_m_representation,
    make_m_grid,
    mf_expectation_via_m,
    to_m_representation,
)
from .scattering import (
    ScatteringModel,
    asymptotic_overlap,
    delta_model,
    equivalence_defect,
    fd_transmission_probability,
    moller_map,
)
from .galapon import (
    DiscreteOperator,
    WitnessTrace,
    discretize_symmetric,
    galapon_T,
    level_correspondence,
    lyapunov_violation_witness,
)

__version__ = "0.1.0"
