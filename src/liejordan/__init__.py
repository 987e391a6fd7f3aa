"""Exact tools for minimal faithful representations and Jordan constants.

Three strands, all in exact arithmetic:

* root-system combinatorics for the simple types: Weyl dimensions,
  centers of the simply connected groups, and the minimal total
  dimension of a faithful completely reducible representation;
* closed bound formulas for Jordan constants of Lie groups, algebraic
  groups, and isometry/automorphism groups, kept symbolic where the
  underlying constant is not pinned down;
* brute-force Jordan constants of explicit finite groups given by
  Cayley tables or permutation generators.

The public names live in the strand modules, and each module loads on
first use of one of its names: importing the package loads none of them,
so a CLI call pays only for the strand it runs.
"""
import importlib

# Public name -> the module that defines it.
_EXPORTS = {name: module for module, names in (
    ("bounds", "BoundExpr ExactInt GroupDims Power Product SymbolicJ bound "
               "bound_algebraic bound_compact_complex bound_hyperbolic bound_lie "
               "bound_lie_connected bound_riemannian expr_to_json jordan_gl "
               "stabilizer_bound_hyperbolic"),
    ("center", "CenterClass WeightSet center_classes center_order is_faithful pair"),
    ("errors", "OrderLimitError RankBudgetError ResourceGuardError"),
    ("finitegroup", "FiniteGroup Subgroup all_subgroups jordan_constant "
                    "jordan_constant_with_witness parse_group"),
    ("minfaithful", "RdimResult rdim rdim_table"),
    ("rootdata", "DominantWeight RootDatum SimpleType build_root_datum "
                 "enumerate_dominant_weights max_rank weyl_dim"),
) for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    """Import the module behind a public name on first use and bind all of
    its public names here, as they are when it loads, so none passes
    through here again."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    source = importlib.import_module(f"{__name__}.{module}")
    globals().update((n, getattr(source, n)) for n, m in _EXPORTS.items() if m == module)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
