"""Desk-scale simulator for OAM-entangled photon pairs in turbulence."""

from skysim.modes import (
    ComplexField,
    azimuthal_spectrum,
    Grid2D,
    LGMode,
    OamSpectrum,
    SamplingError,
    effective_radius,
    lg_field,
    make_grid,
)
from skysim.turbulence import (
    PhaseScreen,
    TurbulenceSpec,
    generate_screen,
    kolmogorov_psd,
    omega_to_fried,
    phase_structure_theory,
    read_screen,
    structure_function,
    write_screen,
)
from skysim.channel import (
    CountModel,
    CrosstalkMatrix,
    apply_screen,
    crosstalk_amplitude,
    crosstalk_matrix,
    effective_channel,
    projective_probability,
    survival_probability_analytic,
)
from skysim.states import (
    BipartitePureState,
    DensityMatrix4,
    Projector,
    TomographyRecord,
    catalog,
    density_from_json,
    density_to_json,
    ensemble_average,
    make_state,
    partial_trace,
    projector_pairs,
    reconstruct_density,
    record_from_json,
    record_to_json,
    simulate_tomography,
    tomography_set,
)
from skysim.witnesses import (
    WitnessReport,
    classical_correlation,
    concurrence,
    discord,
    evaluate_witnesses,
    fidelity,
    mutual_information,
    purity,
    von_neumann_entropy,
)
from skysim.topology import (
    DegenerateFieldError,
    skyrmion_number,
    spatial_density,
)
from skysim.experiments import (
    DEFAULT_WAIST,
    RunConfig,
    config_from_json,
    config_hash,
    config_to_json,
    derive_seed,
    run,
    run_calibration,
    run_ensemble,
    run_static,
)

__version__ = "0.1.0"
