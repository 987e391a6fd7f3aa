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
"""
from .bounds import (BoundExpr, ExactInt, GroupDims, Power, Product,
                     SymbolicJ, bound, bound_algebraic, bound_compact_complex,
                     bound_hyperbolic, bound_lie, bound_lie_connected,
                     bound_riemannian, expr_to_json, jordan_gl,
                     stabilizer_bound_hyperbolic)
from .center import (CenterClass, WeightSet, center_classes, center_order,
                     is_faithful, pair)
from .errors import OrderLimitError, RankBudgetError, ResourceGuardError
from .finitegroup import (FiniteGroup, Subgroup, all_subgroups,
                          jordan_constant, jordan_constant_with_witness,
                          parse_group)
from .minfaithful import RdimResult, rdim, rdim_table
from .rootdata import (DominantWeight, RootDatum, SimpleType,
                       build_root_datum, enumerate_dominant_weights,
                       max_rank, weyl_dim)

__all__ = [
    "BoundExpr", "CenterClass", "DominantWeight", "ExactInt", "FiniteGroup",
    "GroupDims", "OrderLimitError", "Power", "Product", "RankBudgetError",
    "RdimResult", "ResourceGuardError", "RootDatum", "SimpleType",
    "Subgroup", "SymbolicJ", "WeightSet", "all_subgroups", "bound",
    "bound_algebraic", "bound_compact_complex", "bound_hyperbolic",
    "bound_lie", "bound_lie_connected", "bound_riemannian",
    "build_root_datum", "center_classes", "center_order",
    "enumerate_dominant_weights", "expr_to_json",
    "is_faithful", "jordan_constant", "jordan_constant_with_witness",
    "jordan_gl", "max_rank", "parse_group", "rdim", "rdim_table",
    "stabilizer_bound_hyperbolic", "weyl_dim",
]
