"""Algebraic analysis of multiplex, signed, and two-mode social networks.

Boolean tie matrices compose into string semigroups; dyad bundles classify
and census pairwise tie patterns; congruences and compatible quasi-orders
decompose the resulting tables; signed matrices evaluate balance over
valence semirings; and formal contexts yield concept lattices with filters
and ideals. The relalg command line fronts all of it.

The namespace is lazy (PEP 562): `import relalg` loads no submodule and
not numpy. A submodule loads the first time one of its names is used.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each exported name, keyed by the submodule that defines it.
_EXPORTS = {
    "bundles": "BundleCensus BundleStatistics CLASSES STRONG WEAK bundle_census "
    "census_from_counts classify_dyad cohesion_reciprocity pair_lists relational_system",
    "decomp": "Congruence PiLattice PiRelation Reduction decompose factorize "
    "find_congruences is_congruence",
    "dot": "DotDocument bipartite_dot cayley_dot hasse_dot multigraph_dot",
    "errors": "ClosureTooLargeError ComputationError DecompositionTooLargeError DimensionError "
    "NonConvergenceError RelalgError TooManyConceptsError UndefinedStatisticError ValidationError",
    "fca": "Concept ConceptOrder Concepts FormalContext concept_order concepts derive "
    "extent filter_ideal",
    "netcore": "MultiplexNetwork RelationMatrix components compose network_from_dict "
    "network_to_dict permutation_order permute remove_isolates select_subnetwork transpose",
    "positional": "PositionalSystem RelationBox build_relation_box cumulated_hierarchy "
    "person_hierarchy reduce_network",
    "semigroup": "Poset Semigroup StringSet build_semigroup equations generate_strings "
    "semigroup_from_dict string_partial_order transitive_closure",
    "signed": "BALANCE BalanceVerdict CLUSTER SemiringSpec SignedMatrix balance_closure "
    "is_balanced make_signed semiring_powers symmetric_closure verify_semiring",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_MODULE_OF, *_EXPORTS])


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
