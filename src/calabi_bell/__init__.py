"""Exact Bell-polynomial machinery for Ricci-flat metrics of Calabi type.

The package computes, in exact rational arithmetic: partial and complete
Bell polynomials, the Taylor derivatives of the radial potential of the
Ricci-flat metric on a negative line bundle over a compact Einstein base
(by two independent routes), the block-scale constants h_r of its
fiberwise expansion, the alternating-sum sign scan whose first negative
value obstructs a projectively induced metric, and the diastasis block
matrices of the projective-space demonstration. A small numeric layer
evaluates the closed form of the potential in double precision with
branch-residue guards.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# The package's public names, each under the module that defines it: the
# one list of them, which ``__all__`` and ``__getattr__`` both read.
_EXPORTS = {
    "rationals": "InputError CoefficientMethodMismatch BranchResidueError BellConsistencyError"
    " Rational parse_rational format_rational generalized_binomial",
    "bell": "partial_bell_partition partial_bell_recurrence BellTable complete_bell",
    "series": "TruncatedSeries exp_of taylor_series condition_series_residual",
    "potential": "CalabiParams CoefficientSequence u_coeffs_closed u_coeffs_ode u_coeffs h_values"
    " ConditionReport ClosedFormEvaluator",
    "inequality": "normalized_term alternating_bell_sum ScanReport min_negative_r scan_grid",
    "diastasis": "FubiniStudyBase monomial_indices CoeffMatrix fs_power_matrix fs_coeff_matrix"
    " psd_check BlockMatrix BlockScanReport eh_block_scan",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = ["__version__", *_MODULE_OF]

# Each submodule is a lazy module, bound here and in ``sys.modules``: its
# code runs on the first access to one of its attributes.
for _module in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_module] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_module])
del _module, _spec


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_MODULE_OF[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
