"""Tests for errors.decode, the one path from a JSON object to a config
dataclass, and for the config dataclasses it builds."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strnn import adjacency, cli, datagen
from strnn.errors import ConfigError, StrnnError, decode


@dataclass
class Toy:
    name: str
    count: int = 1
    rate: float = 0.5
    flag: bool = False
    items: list | None = None
    pair: tuple = (1, 2)


@dataclass
class Outer:
    toy: Toy | None = None


class TestDecode:
    def test_builds_the_dataclass(self):
        toy = decode(Toy, {"name": "a", "count": 3, "rate": 2, "flag": True,
                           "items": [1], "pair": [3, 4]})
        assert toy == Toy("a", 3, 2, True, [1], (3, 4))

    def test_defaults_fill_absent_keys(self):
        assert decode(Toy, {"name": "a"}) == Toy("a")

    @pytest.mark.parametrize("cfg, match", [
        ([1], "toy must be an object"),
        ({"name": "a", "other": 1}, r"unknown toy keys \['other'\]"),
        ({"count": 2}, "toy is missing the key 'name'"),
        ({"name": None}, "toy name must be of type str, got None"),
        ({"name": "a", "count": True}, "toy count must be of type int"),
        ({"name": "a", "count": 1.0}, "toy count must be of type int"),
        ({"name": "a", "rate": "1"}, "toy rate must be of type float"),
        ({"name": "a", "flag": 1}, "toy flag must be of type bool"),
        ({"name": "a", "items": {}}, r"toy items must be of type list \| None"),
        ({"name": "a", "pair": 5}, "toy pair must be of type tuple"),
        ({"name": "a", "rate": np.nan}, "toy rate must be finite, got nan"),
        ({"name": "a", "rate": -np.inf}, "toy rate must be finite, got -inf"),
        ({"name": "a", "rate": 10 ** 400}, "toy rate must be finite"),
    ])
    def test_rejects(self, cfg, match):
        with pytest.raises(ConfigError, match=match):
            decode(Toy, cfg, "toy ")

    def test_none_where_the_type_allows_it(self):
        assert decode(Toy, {"name": "a", "items": None}).items is None

    def test_decodes_a_nested_dataclass(self):
        toy = decode(Outer, {"toy": {"name": "a", "pair": [5, 6]}}).toy
        assert toy == Toy("a", pair=(5, 6))
        assert decode(Outer, {"toy": None}) == decode(Outer, {}) == Outer()

    @pytest.mark.parametrize("cfg, match", [
        ({"toy": {"name": "a", "other": 1}}, r"unknown outer toy keys \['other'\]"),
        ({"toy": {}}, "outer toy is missing the key 'name'"),
        ({"toy": {"name": "a", "rate": np.nan}}, "outer toy rate must be finite"),
        ({"toy": [1]}, r"outer toy must be of type object \| None, got \[1\]"),
    ])
    def test_rejects_nested(self, cfg, match):
        with pytest.raises(ConfigError, match=match):
            decode(Outer, cfg, "outer ")


# ---------------------------------------------------------------------------
# Fuzzed decoders: every input decodes or raises StrnnError, never another
# exception.

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4),
                                                                  inner, max_size=3),
    max_leaves=5)

VALID = {
    "adjacency spec": (lambda cfg: decode(adjacency.GeneratorSpec, cfg,
                                          "adjacency spec ").validate(), {
        "scheme": "random_sparse", "d": 4, "k": 1, "threshold": 0.5, "rows": 2,
        "cols": 2, "nbr_size": 1, "seed": 1}),
    "dataset spec": (datagen.SynthSpec.from_dict, {
        "family": "binary", "n": 20, "seed": 0, "d": 3, "ratios": [0.6, 0.2, 0.2],
        "adjacency": {"scheme": "prev_k", "d": 3}, "threshold": 0.8, "cutoff": 1.5}),
    "train config": (lambda cfg: decode(cli.TrainRun, cfg, "train config ").validate(), {
        "model": "strnn", "dataset": "d.txt", "adjacency": "a.txt", "hidden": [4],
        "method": "greedy", "objective": "max_connections", "flow_layers": 2,
        "natural_ordering": True, "learning_rate": 1e-3, "weight_decay": 0.0,
        "batch_size": 8, "max_epochs": 2, "early_stop_patience": 1, "seed": 0,
        "lr_schedule": "plateau", "plateau_factor": 0.5, "plateau_patience": 1,
        "epsilon": 1e-8}),
}


@st.composite
def mutated(draw, base):
    """``base`` with a few keys given JSON values or dropped, plus stray keys;
    sometimes a JSON value that is not an object at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON)
    cfg = dict(base)
    for key in draw(st.lists(st.sampled_from(sorted(base)), max_size=3, unique=True)):
        if draw(st.booleans()):
            cfg[key] = draw(JSON)
        else:
            del cfg[key]
    cfg.update(draw(st.dictionaries(st.text(max_size=4), JSON, max_size=1)))
    return cfg


def test_valid_configs_decode():
    for load, cfg in VALID.values():
        load(cfg)


@settings(max_examples=60)
@given(data=st.data())
@pytest.mark.parametrize("name", sorted(VALID))
def test_fuzzed_config_decodes_or_raises_strnn_error(name, data):
    load, base = VALID[name]
    try:
        load(data.draw(mutated(base)))
    except StrnnError:
        pass
