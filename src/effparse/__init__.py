"""Effect-tree parsing toolkit.

Programs are built as free computations over rows of effects
(:mod:`effparse.core`), given meaning either by predicate transformers
(:mod:`effparse.semantics`) or by handlers and fuel-bounded evaluation
(:mod:`effparse.handlers`), and put to work in two parsing engines: regular
expressions with parse-tree witnesses (:mod:`effparse.regex`) and
context-free grammars with left-recursion analysis (:mod:`effparse.cfg`).
The ``effparse`` command line fronts the engines (:mod:`effparse.cli`).
"""

import importlib

from . import cfg, core, handlers, regex, render, semantics

__all__ = ["cfg", "cli", "core", "handlers", "regex", "render", "semantics"]
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    # ``cli`` loads on first use, so ``import effparse`` leaves argparse
    # alone and ``python -m effparse.cli`` runs a module not yet imported.
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
