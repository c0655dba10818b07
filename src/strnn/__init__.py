"""Masked networks, autoregressive flows, and causal queries on known DAGs.

The package enforces a fixed variable-dependency structure end to end: binary
adjacency matrices (``adjacency``), factorizations of those matrices into
per-layer weight masks (``factorizer``), masked MLP density estimators
(``neural``), structured affine normalizing flows (``flow``), interventional
and counterfactual query evaluation (``causal``), and synthetic data
generation (``datagen``).  The ``strnn`` console script exposes the same
functionality from the shell.
"""

from . import adjacency, causal, datagen, errors, factorizer, flow, neural
from .version import VERSION

__version__ = VERSION

# Each module's public names: bound at the package level and listed in __all__.
_EXPORTS = {
    adjacency: """GeneratorSpec dense_lower gen_every_other gen_neighborhood gen_prev_k
        gen_random_sparse read_matrix validate write_matrix""",
    factorizer: """CONNECTIONS_MINUS_VARIANCE MAX_CONNECTIONS OBJECTIVES
        check_sparsity_equal exact_factor_layer factor_multilayer greedy_factor_layer
        made_masks mask_product objective_value zuko_factor""",
    neural: """AdamW Dataset MaskedMLP TrainConfig audit_invariance load_mlp mean_nll
        save_mlp test_summary train""",
    flow: """AffineFlow audit_flow from_noise load_checkpoint load_flow sample save_flow
        to_noise train_flow""",
    causal: """LinearSEM cmse_report flow_counterfactual flow_from_linear_sem
        flow_intervene_sample gen_linear_sem imse_report intervention_values
        sem_counterfactual sem_intervene_mean_vector
        sem_intervene_sample sem_sample total_cmse total_imse""",
    datagen: """GeneratedData SynthSpec gen_binary gen_gaussian gen_linear_sem_data
        gen_nonlinear_multimodal generate make_dataset read_dataset split_indices
        true_nll_binary true_nll_gaussian write_dataset""",
    errors: """BudgetExceededError ConfigError DimMismatchError InfeasibleError
        InsufficientWidthError InvalidDimError InvalidPairError InvalidThresholdError
        NonBinaryEntryError NonBinaryInputError NonFiniteInputError ParseError
        ShapeMismatchError StrnnError UpperTriangleNonZeroError UsageError""",
}

__all__ = ["VERSION", "adjacency", "causal", "datagen", "factorizer", "flow", "neural"]
for _module, _names in _EXPORTS.items():
    for _name in _names.split():
        globals()[_name] = getattr(_module, _name)
        __all__.append(_name)
del _module, _names, _name
