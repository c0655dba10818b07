"""Tests for the package's top-level namespace."""

import strnn

PUBLIC = {
    "VERSION", "adjacency", "causal", "datagen", "factorizer", "flow", "neural",
    "GeneratorSpec", "dense_lower", "gen_every_other", "gen_neighborhood", "gen_prev_k",
    "gen_random_sparse", "read_matrix", "validate", "write_matrix",
    "CONNECTIONS_MINUS_VARIANCE", "MAX_CONNECTIONS", "OBJECTIVES", "check_sparsity_equal",
    "exact_factor_layer", "factor_multilayer", "greedy_factor_layer", "made_masks",
    "mask_product", "objective_value", "zuko_factor",
    "AdamW", "Dataset", "MaskedMLP", "TrainConfig", "audit_invariance", "load_mlp",
    "mean_nll", "save_mlp", "test_summary", "train",
    "AffineFlow", "audit_flow", "from_noise", "load_checkpoint", "load_flow", "sample",
    "save_flow", "to_noise", "train_flow",
    "LinearSEM", "cmse_report", "flow_counterfactual", "flow_from_linear_sem",
    "flow_intervene_sample", "gen_linear_sem", "imse_report", "intervention_values",
    "sem_counterfactual", "sem_intervene_mean_vector",
    "sem_intervene_sample", "sem_sample", "total_cmse", "total_imse",
    "GeneratedData", "SynthSpec", "gen_binary", "gen_gaussian", "gen_linear_sem_data",
    "gen_nonlinear_multimodal", "generate", "make_dataset", "read_dataset",
    "split_indices", "true_nll_binary", "true_nll_gaussian", "write_dataset",
    "BudgetExceededError", "ConfigError", "DimMismatchError", "InfeasibleError",
    "InsufficientWidthError", "InvalidDimError", "InvalidPairError",
    "InvalidThresholdError", "NonBinaryEntryError", "NonBinaryInputError",
    "NonFiniteInputError", "ParseError", "ShapeMismatchError", "StrnnError",
    "UpperTriangleNonZeroError", "UsageError",
}


def test_star_import_gives_the_public_names():
    namespace = {}
    exec("from strnn import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
    assert len(strnn.__all__) == len(PUBLIC)


def test_exports_are_the_module_objects():
    assert strnn.train is strnn.neural.train
    assert strnn.sample is strnn.flow.sample
    assert strnn.ParseError is strnn.errors.ParseError
    assert strnn.__version__ == strnn.VERSION
