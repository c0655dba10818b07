"""Masked networks, autoregressive flows, and causal queries on known DAGs.

The package enforces a fixed variable-dependency structure end to end: binary
adjacency matrices (``adjacency``), factorizations of those matrices into
per-layer weight masks (``factorizer``), masked MLP density estimators
(``neural``), structured affine normalizing flows (``flow``), interventional
and counterfactual query evaluation (``causal``), and synthetic data
generation (``datagen``).  Programs use the package through these modules
(``from strnn import flow``); errors live in ``errors``.  The ``strnn``
console script exposes the same functionality from the shell.
"""

from . import adjacency, causal, datagen, errors, factorizer, flow, neural
from .version import VERSION

__version__ = VERSION

__all__ = ["VERSION", "adjacency", "causal", "datagen", "factorizer", "flow", "neural"]
