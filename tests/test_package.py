"""Tests for the package's top-level namespace."""

import importlib

import strnn

PUBLIC = {"VERSION", "adjacency", "causal", "datagen", "factorizer", "flow", "neural"}


def test_star_import_gives_the_public_names():
    namespace = {}
    exec("from strnn import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
    assert len(strnn.__all__) == len(PUBLIC)


def test_exports_are_the_module_objects():
    for name in PUBLIC - {"VERSION"} | {"errors"}:
        assert getattr(strnn, name) is importlib.import_module(f"strnn.{name}")
    assert not hasattr(strnn, "train") and not hasattr(strnn, "ParseError")
    assert strnn.__version__ == strnn.VERSION
