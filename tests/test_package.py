"""The package namespace: lazy exports that resolve to their submodules' objects."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

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


def _perfbench_imports():
    """(module, name) of each ``from diagclosure... import name`` in perfbench/*.py, in its code and
    in the lines of its strings that a child process runs as code."""
    found = set()
    for path in sorted((Path(SRC).parent / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        strings = [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
        lines = [line for text in strings for line in text.splitlines() if line.startswith("from diagclosure")]
        for node in [n for t in [tree, *map(ast.parse, lines)] for n in ast.walk(t)]:
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "diagclosure":
                found.update((node.module, alias.name) for alias in node.names)
    return sorted(found)


PERFBENCH_IMPORTS = _perfbench_imports()


def test_the_perfbench_imports_are_all_found():
    constructions = {name for module, name in PERFBENCH_IMPORTS if module == "diagclosure.constructions"}
    assert len(constructions) >= 10
    assert ("diagclosure.relations", "FinitePartition") in PERFBENCH_IMPORTS


@pytest.mark.parametrize("module, name", PERFBENCH_IMPORTS)
def test_each_perfbench_import_is_its_defining_modules_object(module, name):
    # perfbench may not change with the package, so every name it imports must stay where it is imported from
    value = getattr(__import__(module, fromlist=[name]), name)  # as ``from module import name`` finds it
    if isinstance(value, types.ModuleType):
        assert value is sys.modules[f"{module}.{name}"]
    else:
        assert value.__module__.startswith("diagclosure.")
        assert vars(importlib.import_module(value.__module__))[name] is value
