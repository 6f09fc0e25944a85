"""Exact linear-algebra laboratory for variable-time search compositions.

Modules:

* linalg       -- tolerance policy, projectors, reflections, unitary spectra
* subroutines  -- variable-time subroutines, stopping profiles, generators
* grover       -- amplitude-rotation loop with per-query weight accounting
* instances    -- two-reflection instances (unit-cost and variable-time
                  query variants), history states, witnesses, weight regimes
* phase        -- spectral decision engine and phase-register simulation
* bounds       -- search cost-bound expressions and comparison tables
* harness      -- reproducible experiment runner
* cli          -- command-line interface
"""

from .linalg import (DEFAULT_TOL, DIM_CAP, DimensionCapError, NonUnitaryError,
                     Projector, SpectralDecomposition, TolerancePolicy,
                     cluster_phases, projector_from_set, reflection,
                     unitarity_residual, unitary_eig)
from .subroutines import (BlockSchedule, StoppingProfile, SubroutineSpec,
                          build_block_subroutine, cascade_profile,
                          late_halting_fractions, random_subroutine,
                          run_block_algorithm, stopping_moments,
                          stopping_profile, subroutine_pair, validate)
from .grover import (AverageQueryCost, CostProfile, OracleSpec,
                     QueryWeightTable, average_query_cost, closed_form_weights,
                     grover_state, iteration_count, lagrange_cos_sum,
                     query_weights, success_probability)
from .instances import (GeneralBasis, NegativeWitness, PEInstance,
                        PositiveWitness, REGIMES, SimpleBasis,
                        Weights, WitnessReport, build_general_instance,
                        build_simple_instance, general_negative_witness,
                        general_positive_witness, history_states,
                        instance_from_sets, promise_parameter, regime_parameters,
                        simple_witnesses, verify_witnesses)
from .phase import (C_PLUS_MAX, Decision, QPEOutcome, RegimePair, decide,
                    qpe_kernel, qpe_simulate, qpe_zero_prediction,
                    regime_pairs, register_bits_for,
                    verify_reflection_factorization, zero_phase_overlap)
from .bounds import (BOUND_KINDS, ComparisonReport, CostReport,
                     PromiseDescriptor, bound, compare_table, full_report)
from .harness import (EXPERIMENT_KINDS, ExperimentConfig, ResultSet, emit,
                      run_experiment)

__version__ = "0.1.0"

__all__ = [
    "AverageQueryCost", "BOUND_KINDS", "BlockSchedule", "C_PLUS_MAX",
    "ComparisonReport", "CostProfile", "CostReport", "DEFAULT_TOL", "DIM_CAP",
    "Decision", "DimensionCapError", "EXPERIMENT_KINDS", "ExperimentConfig",
    "GeneralBasis", "NegativeWitness", "NonUnitaryError",
    "OracleSpec", "PEInstance", "PositiveWitness", "Projector",
    "PromiseDescriptor", "QPEOutcome", "QueryWeightTable", "REGIMES",
    "RegimePair", "ResultSet", "SimpleBasis", "SpectralDecomposition",
    "StoppingProfile", "SubroutineSpec", "TolerancePolicy", "Weights",
    "WitnessReport", "average_query_cost", "bound",
    "build_block_subroutine", "build_general_instance",
    "build_simple_instance", "cascade_profile", "closed_form_weights",
    "cluster_phases", "compare_table", "decide", "emit", "full_report",
    "general_negative_witness", "general_positive_witness", "grover_state",
    "history_states", "instance_from_sets", "iteration_count",
    "lagrange_cos_sum", "late_halting_fractions", "projector_from_set",
    "promise_parameter", "qpe_kernel",
    "qpe_simulate", "qpe_zero_prediction", "query_weights",
    "random_subroutine", "reflection", "regime_pairs", "regime_parameters",
    "register_bits_for", "run_block_algorithm", "run_experiment",
    "simple_witnesses", "stopping_moments",
    "stopping_profile", "subroutine_pair", "success_probability",
    "unitarity_residual", "unitary_eig", "validate",
    "verify_reflection_factorization", "verify_witnesses",
    "zero_phase_overlap",
]
