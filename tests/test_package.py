"""The package namespace: lazy exports that resolve to their submodules' objects, and one home per imported name."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import diagclosure

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

EXPORTS = {
    "constructions": [
        "Certificate", "Construction", "check_certificate", "realise_t0", "realise_t1", "realise_tau_r",
    ],
    "enumeration": [
        "Catalog", "CatalogRecord", "build_catalog", "canonical_code",
        "closure_of_preorder", "decode_preorder", "decode_relation", "enumerate_preorders", "relation_code",
    ],
    "finite_topology": [
        "FinitePartition", "FiniteRelation", "FiniteTopology", "Preorder", "all_partitions", "cl_delta",
        "eq_of_partition", "generate_from_subbasis", "is_t0", "is_t1", "is_t2", "partition_of_eq",
        "preorder_of_topology", "t0_saturation", "tau_r", "topology_of_preorder",
    ],
    "relations": [
        "OMEGA", "BlockClass", "Count", "PartitionSpec", "PointAddr", "is_t1_realisable", "parse_point",
        "parse_spec", "same_block",
    ],
    "subbasis": ["SubbasisExample", "nontransitive_demo"],
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


def _imports_in(directory):
    """(module, name) of each ``from diagclosure... import name``, or ``from .module import name`` inside the
    package, in the *.py files of ``directory``: in their code and in the lines of their strings that a child
    process runs as code."""
    found = set()
    for path in sorted(Path(directory).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        strings = [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
        lines = [line for text in strings for line in text.splitlines() if re.match(r"from diagclosure(\.\w+)* import ", line)]
        for node in [n for t in [tree, *map(ast.parse, lines)] for n in ast.walk(t)]:
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "diagclosure"):
                module = f"diagclosure.{node.module}" if node.level else node.module  # relative: in the package
                found.update((module, alias.name) for alias in node.names)
    return sorted(found)


PERFBENCH_IMPORTS = _imports_in(Path(SRC).parent / "perfbench")


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


def _holds(module, name):
    """Whether ``name`` is the module's own: in its namespace, or in its ``__all__`` (``symbolic_sets.Rational``
    resolves on first use), after ``from module import name`` has bound it."""
    m = __import__(module, fromlist=[name])
    return name in vars(m) or name in getattr(m, "__all__", ())


def test_every_import_names_the_module_that_holds_the_name():
    # one home per name: the tests, the package and its exports import each name from the module that holds it
    imports = {*_imports_in(Path(__file__).parent), *_imports_in(Path(SRC, "diagclosure"))}
    imports |= {(f"diagclosure.{module}", name) for name, module in diagclosure._EXPORTS.items()}
    assert len(imports) > 150
    assert [(module, name) for module, name in sorted(imports) if name != "*" and not _holds(module, name)] == []


def test_only_the_perfbench_imports_resolve_by_a_lookup_in_constructions_and_relations():
    # the two aliases left, so that perfbench keeps working unchanged: no other name of the package resolves there
    modules = [importlib.import_module(f"diagclosure.{m.name}") for m in pkgutil.iter_modules(diagclosure.__path__)]
    names = {name for module in modules for name in vars(module) if not name.startswith("__")}
    looked_up = {
        (module, name) for module in ("diagclosure.constructions", "diagclosure.relations")
        for name in names - vars(sys.modules[module]).keys() if hasattr(sys.modules[module], name)
    }
    aliases = {(module, name) for module, name in PERFBENCH_IMPORTS if not _holds(module, name)}
    assert looked_up == aliases and len(aliases) == 6


def test_a_name_looked_up_on_first_use_loads_its_module_where_importtime_sees_it():
    # -X importtime reports what the import statement loads, and nothing that importlib.import_module loads
    probe = (
        "import diagclosure; diagclosure.nontransitive_demo\n"
        "import diagclosure.constructions as c; c.InfBlocks\n"
        "import diagclosure.relations as r; r.FinitePartition\n"
    )
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", probe],
        capture_output=True, text=True, timeout=30, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert done.returncode == 0, done.stderr
    shown = set(re.findall(r"\| +(diagclosure\.[a-z_]+)$", done.stderr, re.M))
    assert {"diagclosure.subbasis", "diagclosure.constructions", "diagclosure.cofinite", "diagclosure.finite_topology"} <= shown
