"""Diagonal closures of topologies.

Decides which equivalence relations on a countably infinite set arise as
the closure of the diagonal under a T1 (or T0) topology, builds the
witnessing topologies as decidable separation oracles with checkable
certificates, and exhaustively classifies the finite-set analogue by
enumerating all topologies on small point sets.

The package imports lazily: each name below is looked up in its submodule
on first access (PEP 562), so ``import diagclosure`` loads no submodule
and a process pays only for the layers it uses.
"""

from importlib import import_module

_EXPORTS = {
    name: module
    for module, names in (
        ("constructions", (
            "Certificate",
            "Construction",
            "SubbasisExample",
            "check_certificate",
            "nontransitive_demo",
            "realise_t0",
            "realise_t1",
            "realise_tau_r",
        )),
        ("enumeration", (
            "Catalog",
            "CatalogRecord",
            "build_catalog",
            "canonical_code",
            "closure_of_preorder",
            "decode_preorder",
            "decode_relation",
            "enumerate_preorders",
            "relation_code",
        )),
        ("finite_topology", (
            "FiniteTopology",
            "Preorder",
            "cl_delta",
            "generate_from_subbasis",
            "is_t0",
            "is_t1",
            "is_t2",
            "preorder_of_topology",
            "t0_saturation",
            "tau_r",
            "topology_of_preorder",
        )),
        ("relations", (
            "OMEGA",
            "BlockClass",
            "Count",
            "FinitePartition",
            "FiniteRelation",
            "PartitionSpec",
            "PointAddr",
            "all_partitions",
            "eq_of_partition",
            "is_t1_realisable",
            "parse_point",
            "parse_spec",
            "partition_of_eq",
            "same_block",
        )),
        ("symbolic_sets", (
            "Rational",
            "RationalBall",
            "ResidueClassSet",
            "ball_disjoint",
            "ball_member",
            "pair_decode",
            "pair_encode",
            "residues_disjoint",
        )),
        ("verify", (
            "VerifyReport",
            "finite_cross_check",
            "monotonicity_check",
            "verify_construction",
        )),
    )
    for name in names
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
