"""Truncated-variation calculus for sampled paths.

Exact truncated variation and its delta-profile, p-variation and p-TV norms
with their embedding inequalities, strengthened Loeve-Young bounds for
Riemann-Stieltjes integrals of rough paths, and Picard solvers for integral
equations driven by moderately irregular signals.

`import roughtv` loads no submodule.  Each public name below, and each
submodule as `roughtv.<submodule>`, is imported on first access (PEP 562)
and kept, so a program loads only the layers it uses: the `gen` command
never compiles the integrals or the solver.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it gives the package
_NAMES = {
    "kernels": "backend_name",
    "paths": "Mode Partition SampledPath TaggedPartition gen_brownian "
             "gen_counterexample_fx gen_zigzag make_path osc_from_end "
             "osc_from_start oscillation restrict",
    "truncation": "TvProfile optimal_approximation total_variation "
                  "truncated_variation tv_profile",
    "norms": "NormReport c_p embedding_bound p_tv_seminorm p_var_seminorm "
             "p_variation partition_sup_delta seminorm_with_argmax tv_p_full_norm",
    "integrals": "SampledPair TruncationLadder d_e_constants default_ladder_pair "
                 "default_ladder_s integral_norm_check ladder_geometric "
                 "gamma_level_check lemma_sum_bound loeve_young_constant "
                 "min_series_check rs_sum young_series_check young_bound_S "
                 "young_bound_S_tilde",
    "equations": "LipschitzField OdeSolution Quotient composition_norm_check "
                 "field_catalog fixed_point_radius picard_solve solution_radius",
    "reports": "BoundReport",
    "cli": "",
    "errors": "",
    "oracle": "",
    "pathio": "",
}
_HOME = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    """A public name or a submodule, imported on first access and kept."""
    if name in _NAMES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
