"""Logic programming with linguistic truth values and hedge connectives.

Each layer is its own module: ``algebra`` (hedge algebras, truth domains,
their configs and the two conjunctions' names), ``inverse`` (hedge mapping
tables), ``program`` (the program model), ``lang`` (program syntax,
validation and loading), ``solver`` (top-down queries), ``fixpoint``
(least models), ``control`` (controller tables), ``prolog`` (clause text)
and ``cli``, the one place that combines them, with ``usage`` for its
usage errors and help.  Import names from the module that defines them;
the root re-exports only the algebra and table builders, so ``import
fllp`` loads no program layer.
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
