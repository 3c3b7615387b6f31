"""Logic programming with linguistic truth values and hedge connectives.

One module per layer: ``algebra`` (hedge algebras, truth domains, configs,
the conjunctions' names), ``inverse`` (hedge mapping tables), ``program``
(the program model), ``lang`` (syntax, loading), ``validate`` (program
checks), ``solver`` (top-down queries; ``trace`` prints traced goals),
``fixpoint`` (least models), ``control`` (controller tables), ``prolog``
(clause text), and ``cli``, which combines them, with ``repl`` (queries),
``usage`` (usage errors, help) and ``__main__`` (one command per process,
cyclic collector off).  Import names from their module: the root re-exports
only the algebra and table builders, so ``import fllp`` loads no program layer.
"""

from .algebra import (
    DEFAULT_ALGEBRA_CONFIG,
    GODEL,
    LUKA,
    HedgeAlgebraSpec,
    HedgeDecl,
    build_algebra,
    enumerate_domain,
    load_algebra_config,
)
from .inverse import build_inverse_table

__all__ = [
    "DEFAULT_ALGEBRA_CONFIG", "GODEL", "LUKA", "HedgeAlgebraSpec", "HedgeDecl",
    "build_algebra", "build_inverse_table", "enumerate_domain", "load_algebra_config",
]
