"""The package namespace and the CLI's process set-up, each checked in a fresh interpreter."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")

ALL = [
    "BALANCE", "BalanceVerdict", "BundleCensus", "BundleStatistics", "CLASSES", "CLUSTER",
    "ClosureTooLargeError", "ComputationError", "Concept", "ConceptOrder", "Concepts",
    "Congruence", "DecompositionTooLargeError", "DimensionError", "DotDocument",
    "FormalContext", "MultiplexNetwork", "NonConvergenceError", "PiLattice", "PiRelation",
    "Poset", "PositionalSystem", "Reduction", "RelalgError", "RelationBox", "RelationMatrix",
    "STRONG", "Semigroup", "SemiringSpec", "SignedMatrix", "StringSet", "TooManyConceptsError",
    "UndefinedStatisticError",
    "ValidationError", "WEAK", "balance_closure", "bipartite_dot", "build_relation_box",
    "build_semigroup", "bundle_census", "bundles", "cayley_dot", "census_from_counts",
    "classify_dyad", "cohesion_reciprocity", "components", "compose", "concept_order",
    "concepts", "cumulated_hierarchy", "decomp", "decompose", "derive", "dot", "equations",
    "errors", "extent", "factorize", "fca", "filter_ideal", "find_congruences",
    "generate_strings", "hasse_dot", "is_balanced", "is_congruence", "make_signed",
    "multigraph_dot", "netcore", "network_from_dict", "network_to_dict", "pair_lists",
    "permutation_order", "permute", "person_hierarchy", "positional", "reduce_network",
    "relational_system", "remove_isolates", "select_subnetwork", "semigroup",
    "semigroup_from_dict", "semiring_powers", "signed", "string_partial_order",
    "symmetric_closure", "transitive_closure", "transpose", "verify_semiring",
]
SUBMODULES = ["bundles", "decomp", "dot", "errors", "fca", "netcore", "positional",
              "semigroup", "signed"]


def run_python(code, **env):
    """The JSON that code prints, run in a fresh interpreter on this source tree.

    OPENBLAS_NUM_THREADS is taken from env alone, so the caller's value does
    not leak in.
    """
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**base, **env}, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


class TestNamespace:
    def test_import_loads_no_submodule_and_not_numpy(self):
        loaded = run_python(
            "import json, sys, relalg\n"
            "print(json.dumps(sorted(m for m in sys.modules"
            " if m == 'numpy' or m.startswith('relalg'))))"
        )
        assert loaded == ["relalg"]

    def test_all_is_pinned_and_every_name_resolves(self):
        names, missing = run_python(
            "import json, relalg\n"
            "print(json.dumps([relalg.__all__,"
            " [n for n in relalg.__all__ if getattr(relalg, n, None) is None]]))"
        )
        assert names == ALL
        assert len(ALL) == 88 and set(SUBMODULES) <= set(ALL)
        assert missing == []

    def test_star_import_binds_every_name(self):
        unbound = run_python(
            "import json\n"
            "from relalg import *\n"
            f"print(json.dumps([n for n in {ALL!r} if n not in globals()]))"
        )
        assert unbound == []

    def test_submodule_resolves_after_bare_import(self):
        assert run_python(
            "import json, relalg\n"
            "print(json.dumps([relalg.netcore.__name__, relalg.compose.__module__]))"
        ) == ["relalg.netcore", "relalg.netcore"]

    def test_unknown_name_raises_attribute_error(self):
        assert run_python(
            "import json, relalg\n"
            "try:\n"
            "    relalg.nope\n"
            "except AttributeError as exc:\n"
            "    print(json.dumps(str(exc)))"
        ) == "module 'relalg' has no attribute 'nope'"

    def test_dir_lists_every_name(self):
        listed = run_python("import json, relalg\nprint(json.dumps(dir(relalg)))")
        assert set(ALL) | {"__version__"} <= set(listed)


class TestBlasThreads:
    CODE = (
        "import json, os, relalg.cli\n"
        "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None\n"
        "print(json.dumps([tasks, os.environ.get('OPENBLAS_NUM_THREADS')]))"
    )

    def test_cli_import_runs_one_thread(self):
        tasks, value = run_python(self.CODE)
        assert value == "1"
        if tasks is None:
            pytest.skip("no /proc/self/task on this platform")
        assert tasks == 1

    def test_a_value_already_set_is_kept(self):
        assert run_python(self.CODE, OPENBLAS_NUM_THREADS="2")[1] == "2"
