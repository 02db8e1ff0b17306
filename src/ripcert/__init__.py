"""Deterministic sensing-matrix constructions with exhaustive RIP certification.

The package builds equiangular tight frames from block designs and
quadratic residues (plus seeded random ensembles), certifies their
restricted isometry behaviour by exhaustive enumeration and by every
cheap bound that admits one, and exposes the graph correspondence of
real equiangular frames: sign matrices, strongly regular descendants,
clique-forced isometry constants, and expander mixing.
"""

__version__ = "0.1.0"

from .certification import (
    CertificationReport,
    EtfReport,
    IteratedRoBound,
    PairSearch,
    SparkResult,
    SubsetSearch,
    certify_frame,
    delta1,
    fro_constant_search,
    fro_to_ro_bound,
    gershgorin_bound,
    halving_chain,
    iterated_ro_bound,
    ric_exact_search,
    ric_power_search,
    ro_to_rip_bound,
    roc_exact_search,
    select_t,
    spark_search,
    verify_etf,
    welch_bound,
)
from .constructions import (
    Frame,
    SteinerSystem,
    all_pairs_steiner,
    bernoulli_matrix,
    gaussian_matrix,
    hadamard,
    incidence_matrix,
    negate_columns,
    paley_etf,
    realify,
    steiner_etf,
    steiner_triple,
)
from .graphs import (
    CliqueResult,
    MixingCheck,
    SeidelMatrix,
    SimpleGraph,
    SrgCheckResult,
    SrgParams,
    TraceExpansion,
    clique_number,
    expander_mixing_check,
    flip_canonical,
    graph_from_seidel,
    join_decompose,
    paley_clique_number,
    paley_graph,
    predicted_srg,
    seidel_from_gram,
    seidel_trace_expansion,
    srg_check,
)
from .linalg import gram
from .montecarlo import (
    TailRow,
    TailTable,
    TrialConfig,
    TrialOutcome,
    column_sum_tail,
    run_fro_trials,
    run_power_trials,
    trial_seed,
    wilson_interval,
)
