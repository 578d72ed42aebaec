"""The package namespace: lazy exports that resolve to their submodules' objects."""

import importlib
import os
import subprocess
import sys

import pytest

import diagclosure

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

EXPORTS = {
    "constructions": [
        "Certificate", "Construction", "SubbasisExample", "check_certificate",
        "nontransitive_demo", "realise_t0", "realise_t1", "realise_tau_r",
    ],
    "enumeration": [
        "Catalog", "CatalogRecord", "build_catalog", "canonical_code",
        "closure_of_preorder", "decode_preorder", "decode_relation", "enumerate_preorders", "relation_code",
    ],
    "finite_topology": [
        "FiniteTopology", "Preorder", "cl_delta", "generate_from_subbasis", "is_t0", "is_t1", "is_t2",
        "preorder_of_topology", "t0_saturation", "tau_r", "topology_of_preorder",
    ],
    "relations": [
        "OMEGA", "BlockClass", "Count", "FinitePartition", "FiniteRelation", "PartitionSpec", "PointAddr",
        "all_partitions", "eq_of_partition", "is_t1_realisable", "parse_point", "parse_spec",
        "partition_of_eq", "same_block",
    ],
    "symbolic_sets": [
        "Rational", "RationalBall", "ResidueClassSet", "ball_disjoint", "ball_member",
        "pair_decode", "pair_encode", "residues_disjoint",
    ],
    "verify": ["VerifyReport", "finite_cross_check", "monotonicity_check", "verify_construction"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_the_export_list_is_pinned():
    assert len(NAMES) == 54
    assert sorted(diagclosure.__all__) == sorted(name for _, name in NAMES)


@pytest.mark.parametrize("module, name", NAMES)
def test_each_export_is_its_submodules_object(module, name):
    assert name in dir(diagclosure)
    assert getattr(diagclosure, name) is getattr(importlib.import_module(f"diagclosure.{module}"), name)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from diagclosure import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(importlib.import_module(f"diagclosure.{module}"), name)


def test_an_unknown_attribute_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        diagclosure.no_such_name
    assert not hasattr(diagclosure, "no_such_name")


def test_the_package_import_loads_submodules_on_first_use():
    # a fresh interpreter, since this test process has loaded them all
    probe = (
        "import sys, diagclosure\n"
        "print(sorted(m for m in sys.modules if m.startswith('diagclosure.')))\n"
        "from diagclosure import cli, enumeration\n"
        "print(callable(cli.main), callable(enumeration.build_catalog))\n"
        "print(diagclosure.parse_spec is sys.modules['diagclosure.relations'].parse_spec)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=30, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\nTrue True\nTrue\n"
