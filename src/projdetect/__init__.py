"""Projector detection toolkit: quantum signatures, classical baselines, duals.

Three detection pipelines identify primitive central idempotents by short
eigenvalue signatures (single group centre, tensor squares, block
restrictions), a randomized l2-sampling baseline estimates the same
eigenvalues classically, and a geometry-profile pipeline recovers diagrams
from sampled moments. A naive exact group-algebra layer referees everything
at small sizes.
"""

from .symgroup import (
    CharacterTable,
    Partition,
    as_partition,
    character,
    class_size,
    dimension,
    format_partition,
    parse_partition,
    partitions,
)
from .centre import (
    CentreState,
    chi_max,
    content_sum,
    cycle_class_size,
    k_star,
    k_star_growth_report,
    normalized_character,
    projector_state,
    signature,
    signature_table,
    structure_constants,
)
from .qpe import (
    DiagonalUnitary,
    GateCounters,
    QpeState,
    controlled_power_u,
    hadamard_layer,
    inverse_qft,
    measure_register,
    offgrid_amplitude,
    phase_decode,
    phase_encode,
    phase_tail_bound,
    qpe_outcomes,
    qpe_run,
    qpe_schedule,
    sample_outcome,
)
from .detection import (
    DetectionTranscript,
    alice_detect,
    bob_prepare,
    complexity_report,
    complexity_table,
    detect_projector,
    t_bits,
)
from .kron_lr import (
    LrState,
    MultiFamilyTranscript,
    TripleState,
    dim_A,
    dim_K,
    identity_lr_state,
    identity_pair_state,
    kron_detect,
    kron_labels,
    kron_projector_brute,
    kronecker,
    lr_coefficient,
    lr_coefficient_by_rule,
    lr_detect,
    lr_labels,
    lr_projector_brute,
    lr_projector_state,
    necklace_count,
    pair_projector_state,
    ribbon_count,
)
from .classical import (
    ClassicalTranscript,
    CycleClassRowOracle,
    EigenvalueEstimate,
    ProjectorColumnOracle,
    SampleEstimate,
    VectorOracle,
    classical_complexity_report,
    classical_detect,
    dmax_bounds,
    epsilon_star,
    estimate_eigenvalue,
    l2_inner_product,
    preg_entry,
    q_star,
    tk_row_entry,
)
from .holographic import (
    FermionConfig,
    GeometryProfile,
    JacobiCoeffTable,
    a_poly,
    cutoff_comparison_table,
    dft_extract,
    fermion_config,
    holographic_complexity_report,
    holographic_roundtrip,
    jacobi_coeffs,
    moment_cutoff,
    moments_from_casimirs,
    recover_diagram,
    solve_U,
    u_profile,
)
from .groupalgebra import (
    GroupAlgebraElement,
    class_sum,
    cycle_class_sum,
    delta,
    diagonal_orbit_sum,
    g_pair,
    projector_element,
    subgroup_orbit_sum,
)

__version__ = "0.1.0"
