"""Training through the CLI reproduces checked-in runs byte for byte.

``tests/data/train_<kind>/`` holds the ``history.csv`` and ``checkpoint.txt``
that ``train_run(kind, ...)`` wrote.  The three checkpoints were rewritten
when AdamW came to step only the free parameters: a masked weight, which
used to carry the sign of a discarded update and was written as ``-0.0``
about half the time, is now ``0.0``; every other token is unchanged.  The
three histories were rewritten when ``train_nll`` came to be taken from the
epoch's own minibatch passes, the NLL of each batch before its step, in
place of a pass over the training split after the epoch: only that column
changed, and every ``val_nll`` and ``lr`` and every checkpoint stayed
byte-identical.  ``train_mlp`` was rewritten when the binary head came to
take its softplus and sigmoid from one exp(-|o|) (3 of 24 history tokens
and 171 of 2,222 checkpoint tokens moved, by rounding; ``best_epoch`` and
every ``lr`` stayed), and ``train_gaussian`` when a fresh gaussian head
came to start at the standard normal (every ``train_nll`` and ``val_nll``,
3 of 10 ``lr`` and 258 of 1,834 checkpoint tokens moved; ``best_epoch``
stayed 9); ``tests/data/README.md`` has the details.  Each run takes a few
epochs, halves its learning rate on a
plateau and restores its best epoch; its train split ends in a short
minibatch and its validation split fits one evaluation block.  The
checkpoint and the history are checked by separate tests, so a change to
one does not hide whether the other still matches.  A speed change that
moves any bit of training fails here.
"""

import json
import os

import numpy as np
import pytest

from strnn import cli, flow

DATA = os.path.join(os.path.dirname(__file__), "data")

RUNS = {
    # 920 rows split 552/184/184: 8 * 64 + 40 training rows per minibatch,
    # 184 validation rows in one evaluation block.
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


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """The training output directory of a kind, each kind trained once."""
    outs = {}

    def out(kind):
        if kind not in outs:
            outs[kind] = train_run(kind, str(tmp_path_factory.mktemp(kind)))
        return outs[kind]

    return out


def assert_golden(out, kind, name):
    with open(os.path.join(out, name), "rb") as fh:
        got = fh.read()
    with open(os.path.join(DATA, f"train_{kind}", name), "rb") as fh:
        assert got == fh.read(), name


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_training_matches_golden_bytes(kind, trained):
    """The trained parameters: ``checkpoint.txt``."""
    assert_golden(trained(kind), kind, "checkpoint.txt")


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_history_matches_golden_bytes(kind, trained):
    assert_golden(trained(kind), kind, "history.csv")


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_masked_weights_are_written_as_positive_zero(kind, trained):
    """``strnn train`` writes +0.0 (the token ``0.0``) at every masked
    weight position of a binary network, a gaussian network and a flow."""
    model = flow.load_checkpoint(os.path.join(trained(kind), "checkpoint.txt"))
    nets = model.layers if isinstance(model, flow.AffineFlow) else [model]
    for net in nets:
        for W, M in zip(net.weights, net.masks):
            masked = W[M == 0]
            assert masked.size and (masked == 0.0).all() and not np.signbit(masked).any()
