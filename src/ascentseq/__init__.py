"""Exact enumeration of pattern-avoiding ascent sequences.

Four independent pipelines — definition-level brute force, generating-tree
simulation, label-count recurrences, and exact generating-function
expansion — all counting the same avoidance classes, with a verification
harness that cross-checks them against the binomial convolution of the
Catalan numbers (OEIS A007317).

`import ascentseq` loads no submodule: each one but the front end `cli` is
imported on first use, as `ascentseq.verify`, `from ascentseq import series`
or `from ascentseq import *`, so a process pays only for what it runs.
"""

import importlib

__version__ = "0.1.0"

__all__ = ["core", "gentree", "gentree_pair", "gentree_0021", "series", "verify"]


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
