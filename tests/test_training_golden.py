"""Training through the CLI reproduces checked-in runs byte for byte.

``tests/data/train_<kind>/`` holds the ``history.csv`` and ``checkpoint.txt``
that ``train_run(kind, ...)`` wrote.  The ``mlp`` and ``flow`` histories were
written before training was sped up (row-blocked evaluation, no unused input
gradient, in-place AdamW), the ``gaussian`` one before training moved onto
one flat parameter vector and one flat gradient vector.  The three
checkpoints were rewritten when AdamW came to step only the free
parameters: a masked weight, which used to carry the sign of a discarded
update and was written as ``-0.0`` about half the time, is now ``0.0``;
every other token is unchanged.  Each run takes a few epochs, halves its
learning rate on a plateau and restores its best epoch; its train split ends
in a short minibatch and a short evaluation block.  A speed change that
moves any bit of training fails here.
"""

import json
import os

import numpy as np
import pytest

from strnn import cli, flow

DATA = os.path.join(os.path.dirname(__file__), "data")

RUNS = {
    # 920 rows split 552/184/184: 552 = 256 + 296 rows per evaluation block
    # and 8 * 64 + 40 per minibatch.
    "mlp": ({"family": "binary", "n": 920, "seed": 1,
             "adjacency": {"scheme": "random_sparse", "d": 8, "threshold": 0.5, "seed": 2}},
            {"model": "strnn", "hidden": [64], "method": "greedy", "batch_size": 64,
             "learning_rate": 0.05, "weight_decay": 1e-3,
             "lr_schedule": "plateau", "plateau_factor": 0.5,
             "plateau_patience": 1, "max_epochs": 6, "early_stop_patience": 10,
             "seed": 3}),
    # 400 rows split 240/80/80: 7 * 32 + 16 rows per minibatch.
    "flow": ({"family": "gaussian", "n": 400, "seed": 4,
              "adjacency": {"scheme": "prev_k", "d": 5, "k": 2}},
             {"model": "flow", "flow_layers": 2, "hidden": [12], "batch_size": 32,
              "learning_rate": 0.1, "lr_schedule": "plateau", "plateau_factor": 0.5,
              "plateau_patience": 1, "max_epochs": 7, "early_stop_patience": 10,
              "seed": 5}),
    # The gaussian head of the density experiments, two hidden layers and no
    # weight decay.  920 rows split 552/184/184 as for "mlp".
    "gaussian": ({"family": "gaussian", "n": 920, "seed": 6,
                  "adjacency": {"scheme": "random_sparse", "d": 8, "threshold": 0.5,
                                "seed": 7}},
                 {"model": "strnn", "hidden": [24, 16], "method": "greedy",
                  "batch_size": 64, "learning_rate": 0.1, "lr_schedule": "plateau",
                  "plateau_factor": 0.5, "plateau_patience": 1, "max_epochs": 10,
                  "early_stop_patience": 10, "seed": 8}),
}


def train_run(kind, work):
    """Generate the dataset and train the model of ``RUNS[kind]`` in directory
    ``work``; returns the training output directory."""
    spec, config = RUNS[kind]
    spec_path, data = os.path.join(work, "spec.json"), os.path.join(work, "data.txt")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    assert cli.main(["datagen", "--spec", spec_path, "--out", data]) == 0
    config_path, out = os.path.join(work, "train.json"), os.path.join(work, "model")
    with open(config_path, "w") as fh:
        json.dump({**config, "dataset": data, "adjacency": data + ".adj.txt"}, fh)
    assert cli.main(["train", "--config", config_path, "--out-dir", out]) == 0
    return out


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_training_matches_golden_bytes(kind, tmp_path):
    out = train_run(kind, str(tmp_path))
    for name in ("history.csv", "checkpoint.txt"):
        with open(os.path.join(out, name), "rb") as fh:
            got = fh.read()
        with open(os.path.join(DATA, f"train_{kind}", name), "rb") as fh:
            assert got == fh.read(), name


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_masked_weights_are_written_as_positive_zero(kind, tmp_path):
    """``strnn train`` writes +0.0 (the token ``0.0``) at every masked
    weight position of a binary network, a gaussian network and a flow."""
    model = flow.load_checkpoint(os.path.join(train_run(kind, str(tmp_path)), "checkpoint.txt"))
    nets = model.layers if isinstance(model, flow.AffineFlow) else [model]
    for net in nets:
        for W, M in zip(net.weights, net.masks):
            masked = W[M == 0]
            assert masked.size and (masked == 0.0).all() and not np.signbit(masked).any()
