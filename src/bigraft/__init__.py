"""Canonical decompositions of bipartite grafts.

The package computes minimum joins and the distances they induce, splits a
graft into factor components, refines those into the tight-cut partition,
certifies critical quasicombs via graft ear decompositions, enumerates
critical vertex sets, and orders the factor components of a comb by the
containment those sets witness.

Each public name loads its module on first use (PEP 562): ``import
bigraft`` loads no submodule, and ``from bigraft import gen_random_graft``
loads only the layers that generator needs.  The CLI loads the comb,
cathedral and property layers only in the subcommands that run them, so
``analyze`` on a graft without sides never loads them.
"""

# Each public name and the module that defines it.  Importing the package
# imports none of them; in particular loading bigraft.cli here would load it
# before ``python -m bigraft.cli`` runs it, and runpy warns.
_MODULE_OF = {
    "BigraftError": "core",
    "CapacityError": "core",
    "CathedralPoset": "cathedral",
    "Certificate": "properties",
    "CombClassification": "combs",
    "CriticalSetCertificate": "cathedral",
    "CriticalityReport": "combs",
    "DistanceValue": "joins",
    "EarStep": "combs",
    "Edge": "core",
    "FactorComponent": "decomposition",
    "FactorComponentSet": "decomposition",
    "GenConfig": "generators",
    "Graft": "core",
    "GraftEarDecomposition": "combs",
    "GraftInputError": "core",
    "GraftValidationError": "core",
    "InternalConsistencyError": "core",
    "JoinSet": "joins",
    "KLPartition": "decomposition",
    "Multigraph": "core",
    "OrderedBipartiteGraft": "core",
    "PROPERTIES": "properties",
    "PreconditionError": "core",
    "PropertyCheck": "properties",
    "REPORT_SCHEMA": "formats",
    "StepCheck": "combs",
    "StepViolation": "combs",
    "SuiteReport": "properties",
    "UpperBoundEntry": "cathedral",
    "UpperBoundReport": "cathedral",
    "VerificationReport": "combs",
    "Walk": "core",
    "WeightedWalkReport": "joins",
    "all_min_joins": "joins",
    "allowed_edge_set": "joins",
    "build_bipartite_graft": "core",
    "build_graft_ear_decomposition": "combs",
    "cathedral_poset": "cathedral",
    "classify_comb": "combs",
    "cli_main": "cli",
    "contract_graft": "core",
    "decomposition_document": "formats",
    "enumerate_critical_sets": "cathedral",
    "export_dot": "formats",
    "extract_shortest_path": "joins",
    "f_distance": "joins",
    "f_distance_int": "joins",
    "f_weight": "joins",
    "factor_components": "decomposition",
    "flipped_distance_sign": "joins",
    "gen_random_comb": "generators",
    "gen_random_critical_quasicomb": "generators",
    "gen_random_graft": "generators",
    "generate": "generators",
    "graft_document": "formats",
    "graft_from_document": "formats",
    "graft_sum": "core",
    "induced_subgraft": "decomposition",
    "is_allowed_edge": "joins",
    "is_critical_quasicomb": "combs",
    "is_critical_set": "cathedral",
    "is_f_balanced": "combs",
    "is_join": "core",
    "is_minimum_join": "joins",
    "is_separating": "decomposition",
    "kl_classes_of_component": "decomposition",
    "kl_partition": "decomposition",
    "midvertex": "combs",
    "min_join": "joins",
    "min_join_bruteforce": "joins",
    "negative_circuit_witness": "joins",
    "nu": "joins",
    "parse_graft_json": "formats",
    "poset_document": "formats",
    "precedes": "cathedral",
    "property_names": "properties",
    "random_ear_step": "generators",
    "round_ear_bond_check": "cathedral",
    "run_property_suite": "properties",
    "serialize_graft": "formats",
    "suite_report_document": "properties",
    "union_criticality_check": "cathedral",
    "upper_bound_check": "cathedral",
    "upper_report_document": "formats",
    "validate_ear_step": "combs",
    "validate_graft": "core",
    "verify_graft_ear_decomposition": "combs",
    "walk_report": "joins",
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib.import_module, whose imports
    # ``-X importtime`` does not report.  With a fromlist it returns the
    # submodule itself.
    value = getattr(__import__(f"{__name__}.{module}", fromlist=(name,)), name)
    # Bound here, later reads find the name without calling this hook.
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
