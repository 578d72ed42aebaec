"""Diagonal closures of topologies.

Decides which equivalence relations on a countably infinite set arise as
the closure of the diagonal under a T1 (or T0) topology, builds the
witnessing topologies as decidable separation oracles with checkable
certificates, and exhaustively classifies the finite-set analogue by
enumerating all topologies on small point sets.
"""

from .constructions import (
    Certificate,
    Construction,
    SubbasisExample,
    check_certificate,
    nontransitive_demo,
    realise_t0,
    realise_t1,
    realise_tau_r,
)
from .enumeration import (
    Catalog,
    CatalogRecord,
    brute_force_topology_count,
    build_catalog,
    canonical_code,
    closure_of_preorder,
    decode_preorder,
    decode_relation,
    enumerate_preorders,
    relation_code,
)
from .finite_topology import (
    FiniteTopology,
    Preorder,
    cl_delta,
    generate_from_subbasis,
    is_t0,
    is_t1,
    is_t2,
    preorder_of_topology,
    t0_saturation,
    tau_r,
    topology_of_preorder,
)
from .relations import (
    OMEGA,
    BlockClass,
    Count,
    FinitePartition,
    FiniteRelation,
    PartitionSpec,
    PointAddr,
    all_partitions,
    eq_of_partition,
    is_t1_realisable,
    parse_point,
    parse_spec,
    partition_of_eq,
    same_block,
)
from .symbolic_sets import (
    Rational,
    RationalBall,
    ResidueClassSet,
    ball_disjoint,
    ball_member,
    pair_decode,
    pair_encode,
    residues_disjoint,
)
from .verify import VerifyReport, finite_cross_check, monotonicity_check, verify_construction

__version__ = "0.1.0"
