"""Data exchange: schema mappings, the chase, and core solutions.

The application of cores the paper's introduction cites
[Fagin–Kolaitis–Popa 2003], built on the library's own substrate:
st-tgds and the chase produce the canonical universal solution, and
:func:`core_solution` extracts the smallest universal solution via
:func:`repro.homomorphism.cores.compute_core`.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "tgds": (
        "SchemaMapping", "SourceToTargetTGD", "parse_mapping", "parse_tgd",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

# Eager: ``chase`` names both a submodule and a function.  Once
# the submodule is imported, the import system rebinds the package
# attribute to the module, and a lazy binding would never run;
# importing here keeps the function.
from .chase import (  # noqa: E402
    CoreSolutionReport,
    chase,
    core_solution,
    is_null,
    is_solution,
    is_universal_solution,
    solution_homomorphism,
)

__all__ = [
    "SchemaMapping",
    "SourceToTargetTGD",
    "parse_mapping",
    "parse_tgd",
    "CoreSolutionReport",
    "chase",
    "core_solution",
    "is_null",
    "is_solution",
    "is_universal_solution",
    "solution_homomorphism",
]
