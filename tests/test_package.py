"""The package's exported names and what each entry point imports."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sumfree

SRC = Path(sumfree.__file__).resolve().parent.parent

# defining module -> the names the package exports from it
EXPORTS = {
    "analysis": ["DensityReport", "StructureVerdict", "WeightedDensityReport",
                 "coset_floor_check", "decomposition_ratio", "density_formula",
                 "density_report", "even_order_leading_term", "pair_maximal_groups",
                 "singleton_maximal_groups", "structure_verdict", "verify_index2_structure",
                 "weighted_density_check"],
    "construct": ["coset", "extremal_intervals", "lift_residues", "middle_block",
                  "middle_third", "odds", "outer_bands", "periodic_residues"],
    "enumeration": ["CountRecord", "build_count_record", "count_by_cardinality",
                    "count_by_largest", "count_maximal", "count_sum_free",
                    "count_sum_free_sharded", "count_two_wise", "enumerate_maximal",
                    "enumerate_maximum", "enumerate_naive", "enumerate_sum_free",
                    "maximal_sets_of_size"],
    "errors": ["CapacityError", "GenerationTimeout"],
    "generate": ["ExtractionTrace", "PrimePick", "RandomGenConfig", "extract_sum_free",
                 "find_dilator", "find_prime", "random_sum_free", "residue_weights"],
    "groups": ["GroupSpec", "Subgroup", "abelian_groups_of_order",
               "generated_subgroup", "index2_subgroups", "make_group"],
    "universe": ["ElemSet", "GroupUniverse", "IntervalUniverse", "Universe",
                 "count_schur_triples", "is_a_free", "is_difference_free",
                 "is_maximal_sum_free", "is_sum_free", "is_two_wise_sum_free"],
}


def test_all_lists_the_exported_names():
    names = [name for group in EXPORTS.values() for name in group]
    assert len(names) == len(set(names)) == 60
    assert sorted(sumfree.__all__) == sorted(names)


def test_every_name_is_the_defining_modules_object():
    for module_name, names in EXPORTS.items():
        module = importlib.import_module(f"sumfree.{module_name}")
        for name in names:
            value = vars(module)[name]
            namespace: dict = {}
            exec(f"from sumfree import {name}", namespace)
            assert namespace[name] is value is getattr(sumfree, name), name
            if getattr(value, "__module__", "").startswith("sumfree."):
                assert value.__module__ == module.__name__, name
    namespace = {}
    exec("from sumfree import *", namespace)
    assert set(sumfree.__all__) <= set(namespace)


def test_predicates_take_sets_only():
    params = {name: list(inspect.signature(getattr(sumfree, name)).parameters)
              for name in EXPORTS["universe"] if name[0].islower()}
    assert params == {"count_schur_triples": ["s"], "is_a_free": ["s", "a"],
                      "is_difference_free": ["s"], "is_maximal_sum_free": ["s"],
                      "is_sum_free": ["s"], "is_two_wise_sum_free": ["s"]}


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'count_everything'"):
        sumfree.count_everything  # noqa: B018
    with pytest.raises(ImportError):
        exec("from sumfree import count_everything", {})


# runs an entry point in a fresh interpreter and prints the sumfree modules it
# loaded, and csv, dataclasses, inspect and json if it loaded them
_LOADED = """
import contextlib, io, sys
from sumfree.cli import build_parser, main
build_parser()
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        main(sys.argv[1:])
print(*sorted(m for m in sys.modules if m in ("sumfree", "csv", "dataclasses", "inspect", "json")
              or m.startswith("sumfree.")))
"""


def _loaded(*argv: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", _LOADED, *argv], env=env, check=True,
                         capture_output=True, text=True).stdout
    return {name.removeprefix("sumfree.") for name in out.split()}


def test_entry_points_load_only_what_they_run(tmp_path):
    assert _loaded() == {"sumfree", "cli", "errors"}
    assert not _loaded("count", "--interval", "5") & {"analysis", "construct", "generate"}
    path = tmp_path / "s.json"
    path.write_text("[1, 4]")
    assert not _loaded("verify", "--interval", "5", "--set", str(path)) & {
        "enumeration", "analysis"}


def test_no_entry_point_loads_dataclasses_and_interval_jobs_load_no_groups(tmp_path):
    path = tmp_path / "s.json"
    path.write_text("[1, 4]")
    interval_jobs = [["count", "--interval", "6", "--maximal", "--2wise"],
                     ["sweep-intervals", "--n-max", "6"],
                     ["verify", "--interval", "5", "--set", str(path)]]
    other_jobs = [[], ["count", "--group", "2,3"],
                  ["sweep-groups", "--max-order", "6", "--check", "mu"],
                  ["verify", "--group", "7", "--set", str(path)],
                  ["extract", str(path)], ["extract", str(path), "--trace"],
                  ["random", "--seed-element", "1", "--target", "3", "--range", "20"]]
    for argv in interval_jobs + other_jobs:
        loaded = _loaded(*argv)
        assert "cli" in loaded and not loaded & {"dataclasses", "inspect"}, argv
        if argv in interval_jobs:  # no group module, and no group walker
            assert not loaded & {"groups", "_group_walkers"}, argv
        if argv[:2] in (["count", "--group"], ["sweep-groups", "--max-order"]):
            assert "_interval_walkers" not in loaded, argv
        if argv[:1] == ["random"]:  # it draws from an interval: no group, no construction
            assert not loaded & {"groups", "construct", "json"}, argv  # and reads no JSON
        if argv[:1] == ["extract"]:
            assert "analysis" not in loaded, argv
        if argv[:1] in (["verify"], ["extract"], ["random"]):  # none of them writes CSV
            assert "csv" not in loaded, argv
        if argv[:1] == ["sweep-groups"]:  # the density check builds no construction
            assert "construct" not in loaded, argv


def test_the_tracer_finds_the_enumeration_layer_in_its_module():
    # bench/traced_cli.py wraps the public functions defined in
    # sumfree.enumeration and reads its two count caches there: a name moved
    # out of the module would drop out of the traced layers unnoticed
    import sumfree.enumeration as enumeration

    for name in [*sumfree._EXPORTS["enumeration"], "_interval_count", "_group_count"]:
        assert getattr(enumeration, name).__module__ == "sumfree.enumeration", name
    assert all(hasattr(getattr(enumeration, name), "cache_info")
               for name in ("_interval_count", "_group_count"))


def test_the_tracer_finds_the_methods_it_patches():
    # bench/traced_cli.py replaces these on their classes: a renamed or moved
    # one would stop every traced run with an AttributeError
    from sumfree.groups import GroupSpec
    from sumfree.universe import ElemSet

    for cls, name in [(GroupSpec, "add_index"), (GroupSpec, "neg_index"),
                      (GroupSpec, "index_to_coords"), (GroupSpec, "coords_to_index"),
                      (ElemSet, "members")]:
        assert inspect.isfunction(vars(cls)[name]), name
        assert vars(cls)[name].__module__ == cls.__module__, name
    from_values = vars(ElemSet)["from_values"]
    assert isinstance(from_values, classmethod)
    assert inspect.isfunction(from_values.__func__)
    assert (GroupSpec.__module__, ElemSet.__module__) == ("sumfree.groups", "sumfree.universe")
