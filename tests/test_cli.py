import copy
import json
import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from conftest import DATA, golden
import relalg
from relalg import (
    MultiplexNetwork,
    RelationMatrix,
    fixtures,
    generate_strings,
    make_signed,
    string_partial_order,
)
from relalg.cli import NETWORK, main
from relalg.netcore import network_to_dict


def run_process(*args):
    """The CLI in a fresh interpreter, from this source tree, with a timeout."""
    src = str(pathlib.Path(relalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "relalg.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """All the input files the commands read, built once."""
    td = tmp_path_factory.mktemp("cli")
    out = {}

    for name, net in (("ncc", fixtures.ncc()), ("netcs", fixtures.netcs())):
        p = td / f"{name}.json"
        p.write_text(json.dumps(network_to_dict(net)))
        out[name] = str(p)

    # positive/negative slices that fold back into the signed fixture
    s = fixtures.netcsg()
    actors = list(s.actors)
    pos = [
        (actors[i], actors[j])
        for i in range(s.n)
        for j in range(s.n)
        if s.cells[i, j] in "pa"
    ]
    neg = [
        (actors[i], actors[j])
        for i in range(s.n)
        for j in range(s.n)
        if s.cells[i, j] in "na"
    ]
    net = MultiplexNetwork(
        actors,
        [
            RelationMatrix.from_ties("P", actors, pos),
            RelationMatrix.from_ties("N", actors, neg),
        ],
    )
    assert make_signed(net.slices[0], net.slices[1]) == s
    p = td / "netcsg.json"
    p.write_text(json.dumps(network_to_dict(net)))
    out["netcsg"] = str(p)

    g20 = fixtures.g20()
    p = td / "g20.json"
    p.write_text(json.dumps(g20.to_dict()))
    out["g20"] = str(p)
    rows = ["," + ",".join(g20.attributes)]
    for i, obj in enumerate(g20.objects):
        rows.append(obj + "," + ",".join(str(int(v)) for v in g20.incidence[i]))
    p = td / "g20.csv"
    p.write_text("\n".join(rows) + "\n")
    out["g20_csv"] = str(p)

    po = string_partial_order(generate_strings(fixtures.netcs()))
    p = td / "netcs_po.json"
    p.write_text(json.dumps(po.to_dict()))
    out["po"] = str(p)

    p = td / "bare_table.json"
    p.write_text(json.dumps({"st": ["a", "b"], "table": [[1, 2], [2, 1]]}))
    out["bare_table"] = str(p)

    p = td / "broken.json"
    p.write_text("{nope")
    out["broken"] = str(p)
    out["dir"] = str(td)
    return out


class TestCensus:
    def test_counts_table(self, runner, files):
        r = runner.invoke(main, ["census", files["ncc"]])
        assert r.exit_code == 0
        lines = r.output.splitlines()
        assert lines[0].split() == [
            "BUNDLES", "NULL", "ASYMM", "RECIP", "T.ENTR", "T.EXCH", "MIXED", "FULL",
        ]
        assert lines[1].split() == ["TOTAL", "6", "4", "5", "0", "1", "0", "0", "0"]

    def test_stats_undefined_without_strong_bonds(self, runner, files):
        r = runner.invoke(main, ["census", "--stats", files["ncc"]])
        assert r.exit_code == 3
        assert "statistic undefined: strong bond" in r.output
        assert r.stdout == ""

    def test_missing_file(self, runner, files):
        r = runner.invoke(main, ["census", files["dir"] + "/nowhere.json"])
        assert r.exit_code == 2
        assert "cannot read" in r.output

    def test_malformed_json(self, runner, files):
        r = runner.invoke(main, ["census", files["broken"]])
        assert r.exit_code == 2


class TestRelsys:
    def test_tie_pairs_by_class(self, runner, files):
        r = runner.invoke(
            main, ["relsys", files["ncc"], "--bonds", "tent", "--format", "pairs"]
        )
        assert r.exit_code == 0
        assert r.output.splitlines() == ["$C", "  398, 357", "$F", "  398, 357", "$K"]

    def test_unknown_bond_class(self, runner, files):
        r = runner.invoke(main, ["relsys", files["ncc"], "--bonds", "nonsense"])
        assert r.exit_code == 2


class TestSemigroup:
    def test_prints_order_and_writes_json(self, runner, files, tmp_path):
        out = tmp_path / "sg.json"
        r = runner.invoke(
            main, ["semigroup", files["netcs"], "--symbolic", "--out", str(out)]
        )
        assert r.exit_code == 0
        assert r.output.splitlines()[0] == "order: 10"
        assert "st: C F K CC CF CK FF KC KF CKF" in r.output
        data = json.loads(out.read_text())
        assert data["order"] == 10
        assert data["st"] == golden("netcs_semigroup.json")["st"]

    def test_closure_cap_stops_the_run(self, runner, files):
        r = runner.invoke(main, ["semigroup", files["netcs"], "--max-elements", "3"])
        assert r.exit_code == 3

    def test_equations_listing(self, runner, files):
        r = runner.invoke(main, ["equations", files["ncc"], "--k", "3"])
        assert r.exit_code == 0
        line = next(l for l in r.output.splitlines() if l.startswith("K:"))
        assert set(line.split()[1:]) == set(golden("ncc_equations_K.json")["K"])

    def test_equations_bad_k(self, runner, files):
        r = runner.invoke(main, ["equations", files["ncc"], "--k", "0"])
        assert r.exit_code == 2

    @pytest.mark.parametrize("command", ["equations", "rbox", "cph"])
    def test_word_count_over_the_cap_stops_before_enumerating(
        self, runner, files, command
    ):
        # 3 + 9 + ... + 3**11 words over ncc's three slices pass the default cap
        r = runner.invoke(main, [command, files["ncc"], "--k", "11"])
        assert r.exit_code == 3
        assert "closure exceeded 100000 elements" in r.output

    def test_order_matrix(self, runner, files):
        r = runner.invoke(main, ["order", files["ncc"]])
        assert r.exit_code == 0
        want = golden("ncc_partial_order.json")
        lines = r.output.splitlines()
        assert lines[0].split() == want["labels"]
        for row_want, line in zip(want["matrix"], lines[1:]):
            assert [int(x) for x in line.split()[1:]] == row_want


class TestPositional:
    def test_rbox_summary_and_export(self, runner, files, tmp_path):
        out = tmp_path / "rbox.json"
        r = runner.invoke(
            main, ["rbox", files["ncc"], "--k", "2", "--out", str(out)]
        )
        assert r.exit_code == 0
        assert "actors: 5  words: 12  k: 2" in r.output
        data = json.loads(out.read_text())
        assert len(data["labels"]) == len(data["slices"]) == 12

    def test_cph_matches_reference(self, runner, files):
        r = runner.invoke(main, ["cph", files["ncc"]])
        assert r.exit_code == 0
        want = golden("ncc_cph.json")["matrix"]
        rows = [
            [int(x) for x in line.split()[1:]]
            for line in r.output.splitlines()[1:]
            if line.strip()
        ]
        assert rows == want

    def test_reduce_with_inline_classes(self, runner, files):
        r = runner.invoke(
            main,
            ["reduce", files["ncc"], "--classes", "339=2,354=3,357=1,395=3,398=1"],
        )
        assert r.exit_code == 0
        assert r.output.splitlines()[0] == "classes: 2 3 1"
        assert "$C" in r.output and "$K" in r.output

    def test_reduce_with_class_file(self, runner, files, tmp_path):
        p = tmp_path / "classes.json"
        p.write_text(json.dumps({"339": 2, "354": 3, "357": 1, "395": 3, "398": 1}))
        r = runner.invoke(main, ["reduce", files["ncc"], "--classes", str(p)])
        assert r.exit_code == 0
        assert r.output.splitlines()[0] == "classes: 2 3 1"

    def test_reduce_incomplete_classes(self, runner, files):
        r = runner.invoke(main, ["reduce", files["ncc"], "--classes", "339=1"])
        assert r.exit_code == 2


@pytest.fixture(scope="module")
def sg_file(runner, files, tmp_path_factory):
    out = tmp_path_factory.mktemp("sg") / "netcs_sg.json"
    r = runner.invoke(
        main, ["semigroup", files["netcs"], "--symbolic", "--out", str(out)]
    )
    assert r.exit_code == 0
    return str(out)


class TestDecomp:
    def test_cc_vectors_from_exported_table(self, runner, sg_file):
        r = runner.invoke(main, ["decomp", sg_file])
        assert r.exit_code == 0
        lines = r.output.splitlines()
        assert lines[0] == "elements: C F K CC CF CK FF KC KF CKF"
        assert lines[1] == "[1] 1 2 3 4 1 5 2 6 7 8"
        assert len([l for l in lines if l.startswith("[")]) == 18

    def test_mca_quotients(self, runner, files, sg_file):
        r = runner.invoke(
            main, ["decomp", sg_file, "--poset", files["po"], "--mode", "mca"]
        )
        assert r.exit_code == 0
        vectors = [
            [int(x) for x in line.split()[1:]]
            for line in r.output.splitlines()
            if line.startswith("[")
        ]
        assert vectors == golden("netcs_congruences.json")["mca"]

    def test_mca_needs_a_poset(self, runner, sg_file):
        r = runner.invoke(main, ["decomp", sg_file, "--mode", "mca"])
        assert r.exit_code == 2
        assert r.stdout == ""

    def test_mca_rejects_a_poset_that_is_no_partial_order(self, tmp_path):
        sg = tmp_path / "sg.json"
        sg.write_text(json.dumps({"st": ["a", "b"], "table": [[1, 2], [2, 1]]}))
        po = tmp_path / "po.json"
        po.write_text(json.dumps({"labels": ["a", "b"], "matrix": [[0, 1], [1, 0]]}))
        r = run_process("decomp", str(sg), "--mode", "mca", "--poset", str(po))
        assert r.returncode == 2, r.stdout
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("error: not a poset")
        assert len(r.stderr.splitlines()) == 1
        assert r.stdout == ""

    @pytest.mark.parametrize("mode", [["cc"], ["mca", "--poset"]])
    def test_decomposition_budget_exits_3(self, files, sg_file, monkeypatch, mode):
        monkeypatch.setenv("RELALG_MAX_DECOMP_BYTES", "1000")
        extra = [files["po"]] if len(mode) > 1 else []
        r = run_process("decomp", sg_file, "--mode", *mode, *extra)
        assert r.returncode == 3, r.stderr
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("error: decomposition would take ")
        assert "over the cap of 1000" in r.stderr
        assert len(r.stderr.splitlines()) == 1
        assert r.stdout == ""


class TestSigned:
    def test_letter_matrix(self, runner, files):
        r = runner.invoke(
            main, ["signed", files["ncc"], "--positive", "C", "--negative", "F"]
        )
        assert r.exit_code == 0
        lines = r.output.splitlines()
        assert lines[0] == "val: o n a"
        assert lines[2].split() == ["339", "o", "o", "o", "o", "n"]

    def test_unknown_slice(self, runner, files):
        r = runner.invoke(
            main, ["signed", files["ncc"], "--positive", "C", "--negative", "ZZZ"]
        )
        assert r.exit_code == 2
        assert "no slice named" in r.output

    def test_closure_with_verdict(self, runner, files):
        r = runner.invoke(
            main,
            ["semiring", files["netcsg"], "--positive", "P", "--negative", "N", "--closure"],
        )
        assert r.exit_code == 0
        lines = r.output.splitlines()
        assert "verdict: balanced" in lines
        assert "group: 328 342 352 368 376 380 391 407 414" in lines
        assert "group: 394" in lines

    def test_cluster_closure_verdict(self, runner, files):
        r = runner.invoke(
            main,
            [
                "semiring", files["netcsg"],
                "--positive", "P", "--negative", "N",
                "--cluster", "--closure",
            ],
        )
        assert r.exit_code == 0
        assert "verdict: clusterable-only" in r.output

    def test_walk_accumulation(self, runner, files):
        r = runner.invoke(
            main,
            ["semiring", files["netcsg"], "--positive", "P", "--negative", "N", "--k", "1"],
        )
        assert r.exit_code == 0
        want = golden("netcsg_symclos_k1.json")["cells"]
        rows = [line.split()[1:] for line in r.output.splitlines()[2:] if line.strip()]
        assert rows == want

    def test_large_k_ends_at_the_stable_sum(self, files):
        args = ["semiring", files["ncc"], "--positive", "C", "--negative", "F"]
        runs = [run_process(*args, *extra) for extra in (["--k", "1000000"], ["--closure"])]
        assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
        assert runs[1].stdout.startswith(runs[0].stdout)


class TestGalois:
    def test_concept_listing(self, runner, files):
        r = runner.invoke(main, ["galois", files["g20"]])
        assert r.exit_code == 0
        lines = r.output.splitlines()
        assert lines[0] == "concepts: 25"
        assert lines[1] == "c1: {P5} {CHN, FRA, GBR, RUS, USA}"

    def test_csv_context_reads_the_same(self, runner, files):
        a = runner.invoke(main, ["galois", files["g20"]])
        b = runner.invoke(main, ["galois", files["g20_csv"]])
        assert b.exit_code == 0
        assert a.output == b.output

    def test_reduced_labels_with_filter(self, runner, files):
        r = runner.invoke(
            main, ["galois", files["g20"], "--reduced", "--filter", "3"]
        )
        assert r.exit_code == 0
        assert "c3: {G7} {ITA}" in r.output
        tail = r.output.splitlines()[-4:]
        assert tail == ["3: {G7} {ITA}", "6: {DAC} {}", "7: {OECD} {}", "25: {} {ARG, SAU}"]

    def test_order_matrix_printed(self, runner, files):
        r = runner.invoke(main, ["galois", files["g20"], "--order"])
        assert r.exit_code == 0
        assert "c25" in r.output

    def test_filter_command_verbatim(self, runner, files):
        r = runner.invoke(
            main, ["filter", files["g20"], "--of", "G7,BRICS", "--ideal"]
        )
        assert r.exit_code == 0
        want = golden("g20_filters.json")["ideal_G7_BRICS"]
        assert r.output.splitlines() == [f"{k}: {v}" for k, v in want.items()]

    def test_filter_bad_selector(self, runner, files):
        r = runner.invoke(main, ["filter", files["g20"], "--of", "ATLANTIS"])
        assert r.exit_code == 2

    @pytest.mark.parametrize("command", [["galois"], ["filter", "--of", "1"]])
    def test_concept_cap_exits_3(self, files, monkeypatch, command):
        monkeypatch.setenv("RELALG_MAX_CONCEPTS", "3")
        r = run_process(command[0], files["g20"], *command[1:])
        assert r.returncode == 3, r.stderr
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("error: context has more than 3 concepts")
        assert len(r.stderr.splitlines()) == 1
        assert r.stdout == ""


class TestDot:
    def test_hasse_to_stdout(self, runner, files):
        r = runner.invoke(main, ["dot", "hasse", files["po"]])
        assert r.exit_code == 0
        assert r.output.startswith("digraph hasse {")

    def test_hasse_to_file(self, runner, files, tmp_path):
        out = tmp_path / "po.dot"
        r = runner.invoke(main, ["dot", "hasse", files["po"], "--out", str(out)])
        assert r.exit_code == 0
        assert out.read_text().startswith("digraph hasse {")

    def test_cayley_edge_count(self, runner, files, tmp_path):
        sg = tmp_path / "sg.json"
        runner.invoke(
            main, ["semigroup", files["netcs"], "--symbolic", "--out", str(sg)]
        )
        r = runner.invoke(main, ["dot", "cayley", str(sg)])
        assert r.exit_code == 0
        assert r.output.count(" -> ") == 30

    def test_cayley_without_generators(self, runner, files):
        r = runner.invoke(main, ["dot", "cayley", files["bare_table"]])
        assert r.exit_code == 2

    def test_multigraph_and_bipartite(self, runner, files):
        r = runner.invoke(main, ["dot", "multigraph", files["ncc"]])
        assert r.exit_code == 0 and r.output.count(" -> ") == 7
        r = runner.invoke(main, ["dot", "bipartite", files["g20"]])
        assert r.exit_code == 0 and r.output.count(" -- ") == 55

    def test_unknown_kind(self, runner, files):
        r = runner.invoke(main, ["dot", "spiral", files["ncc"]])
        assert r.exit_code == 2


class TestEmptyInputs:
    """Well-formed documents with no objects or no elements load and run."""

    def test_galois_on_a_context_without_objects(self, runner, tmp_path):
        p = tmp_path / "ctx.json"
        p.write_text(json.dumps({"objects": [], "attributes": ["x"], "incidence": []}))
        r = runner.invoke(main, ["galois", str(p)])
        assert r.exit_code == 0, r.output
        assert r.output.splitlines() == ["concepts: 1", "c1: {x} {}"]

    def test_hasse_of_the_empty_poset(self, runner, tmp_path):
        p = tmp_path / "po.json"
        p.write_text(json.dumps({"labels": [], "matrix": []}))
        r = runner.invoke(main, ["dot", "hasse", str(p)])
        assert r.exit_code == 0, r.output
        assert r.output.startswith("digraph hasse {")


NO_ACTORS = {"actors": [], "relations": [{"name": "A", "ties": []}]}
# Every command that reads a network, with the options it needs on NO_ACTORS.
NETWORK_COMMANDS = [
    ["census"], ["relsys", "--bonds", "strong"], ["semigroup"], ["equations"],
    ["order"], ["rbox"], ["cph"], ["reduce", "--classes", "NO_CLASSES"],
    ["signed", "--positive", "A", "--negative", "A"],
    ["semiring", "--positive", "A", "--negative", "A", "--closure"], ["dot", "multigraph"],
]


def test_every_network_command_is_listed():
    reads = {c for c in main.commands if NETWORK in [p.type for p in main.commands[c].params]}
    assert reads | {"dot"} == {c[0] for c in NETWORK_COMMANDS}


@pytest.mark.parametrize("command", NETWORK_COMMANDS, ids=" ".join)
def test_network_over_no_actors(command, tmp_path):
    """Every command that reads a network runs on one over no actors."""
    net, classes = tmp_path / "none.json", tmp_path / "classes.json"
    net.write_text(json.dumps(NO_ACTORS))
    classes.write_text("{}")
    at = 2 if command[0] == "dot" else 1
    args = [{"NO_CLASSES": str(classes)}.get(a, a) for a in command]
    r = run_process(*args[:at], str(net), *args[at:])
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""


MALFORMED_CAPS = {
    "closure-env": ({"RELALG_MAX_CLOSURE": "abc"}, ["semigroup", "NET"], "RELALG_MAX_CLOSURE"),
    "closure-negative": ({}, ["semigroup", "NET", "--max-elements", "-1"], "RELALG_MAX_CLOSURE"),
    "decomp-env": ({"RELALG_MAX_DECOMP_BYTES": "1e9"}, ["decomp", "SG"], "RELALG_MAX_DECOMP_BYTES"),
    "concepts-env": ({"RELALG_MAX_CONCEPTS": "-5"}, ["galois", "CTX"], "RELALG_MAX_CONCEPTS"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CAPS))
def test_malformed_cap_exits_2(case, files, monkeypatch):
    env, command, name = MALFORMED_CAPS[case]
    for k, v in env.items():
        monkeypatch.setenv(k, v)
    inputs = {"NET": files["netcs"], "SG": str(DATA / "netcs_semigroup.json"), "CTX": files["g20"]}
    r = run_process(*(inputs.get(a, a) for a in command))
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ") and name in r.stderr
    assert "must be a whole number >= 0" in r.stderr
    assert len(r.stderr.splitlines()) == 1
    assert r.stdout == ""


NETCS_ST = golden("netcs_semigroup.json")["st"]
NETCS_EYE = [[int(i == j) for j in range(len(NETCS_ST))] for i in range(len(NETCS_ST))]
# (aa)a = ba = c, but a(aa) = ab = b
NON_ASSOCIATIVE = {
    "st": ["a", "b", "c"], "table": [[2, 2, 3], [3, 1, 3], [2, 2, 3]], "generators": [["a", 1]],
}
MALFORMED = {
    "tie-not-a-pair": (
        "census", {"actors": ["a", "b"], "relations": [{"name": "C", "ties": [["a"]]}]}
    ),
    "actors-integer": (
        "census", {"actors": 5, "relations": [{"name": "C", "ties": []}]}
    ),
    "actors-string": (
        "census", {"actors": "ab", "relations": [{"name": "C", "ties": [["a", "b"]]}]}
    ),
    "table-cell-null": ("decomp", {"st": ["a", "b"], "table": [[1, None], [2, 1]]}),
    "table-cell-fraction": ("decomp", {"st": ["a", "b"], "table": [[1, 1.5], [2, 1]]}),
    "generator-out-of-range": (
        "decomp", {"st": ["a", "b"], "table": [[1, 2], [2, 1]], "generators": [["a", 0]]}
    ),
    "poset-cells-not-0-1": (
        "decomp SG --mode mca --poset",
        {"labels": NETCS_ST, "matrix": [[None, "x"] + NETCS_EYE[0][2:]] + NETCS_EYE[1:]},
    ),
    "poset-cells-not-0-1-hasse": (
        "dot hasse", {"labels": ["a", "b"], "matrix": [[None, "x"], [0, 1]]}
    ),
    "poset-labels-string": ("dot hasse", {"labels": "ab", "matrix": [[1, 0], [0, 1]]}),
    "poset-ragged": ("dot hasse", {"labels": ["a", "b"], "matrix": [[1], [0, 1]]}),
    "poset-labels-repeated": ("dot hasse", {"labels": ["a", "a"], "matrix": [[1, 0], [0, 1]]}),
    "table-st-repeated": ("decomp", {"st": ["a", "a"], "table": [[1, 2], [2, 1]]}),
    "table-not-associative": ("decomp", NON_ASSOCIATIVE),
    "table-not-associative-mca": ("decomp --mode mca --poset EYE3", NON_ASSOCIATIVE),
    "generator-letters-repeated": (
        "dot cayley",
        {"st": ["a", "b"], "table": [[1, 2], [2, 1]], "generators": [["a", 1], ["a", 2]]},
    ),
    "generator-letter-integer": (
        "dot cayley", {"st": ["a", "b"], "table": [[1, 2], [2, 1]], "generators": [[7, 1]]}
    ),
    "context-objects-string": (
        "galois", {"objects": "ab", "attributes": ["x"], "incidence": [[1], [0]]}
    ),
    "context-cell-2": (
        "filter --of 1", {"objects": ["a"], "attributes": ["x"], "incidence": [[2]]}
    ),
    "context-incidence-wrong-shape": (
        "dot bipartite", {"objects": ["a", "b"], "attributes": ["x"], "incidence": [[1]]}
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_json_exits_2_without_traceback(case, tmp_path):
    command, data = MALFORMED[case]
    p = tmp_path / f"{case}.json"
    p.write_text(json.dumps(data))
    eye3 = tmp_path / "eye3.json"
    eye3.write_text(json.dumps({"labels": ["a", "b", "c"], "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    inputs = {"SG": str(DATA / "netcs_semigroup.json"), "EYE3": str(eye3)}
    r = run_process(*(inputs.get(a, a) for a in command.split()), str(p))
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ")
    assert len(r.stderr.splitlines()) == 1


def put_bytes(path, data):
    path.write_bytes(data)
    return str(path)


# Input files that are no UTF-8, and --out paths in a directory that does not exist.
FILE_FAULTS = {
    "json-not-utf8": lambda files, tmp: [
        "census", put_bytes(tmp / "in.json", b'{"actors": ["\xff"], "relations": []}')
    ],
    "csv-not-utf8": lambda files, tmp: ["galois", put_bytes(tmp / "in.csv", b",x\n\xff,1\n")],
    "dot-out-unwritable": lambda files, tmp: [
        "dot", "hasse", files["po"], "--out", str(tmp / "no" / "h.dot")
    ],
    "semigroup-out-unwritable": lambda files, tmp: [
        "semigroup", files["netcs"], "--out", str(tmp / "no" / "sg.json")
    ],
}


@pytest.mark.parametrize("case", sorted(FILE_FAULTS))
def test_read_and_write_failures_exit_2_without_traceback(case, files, tmp_path):
    r = run_process(*FILE_FAULTS[case](files, tmp_path))
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: cannot ")
    assert len(r.stderr.splitlines()) == 1
    assert r.stdout == ""


# Slice "tA" has the name that --transposes gives the transpose of slice "A".
TRANSPOSE_CLASH = {"actors": ["x", "y"], "relations": [
    {"name": "A", "ties": [["x", "y"]]}, {"name": "tA", "ties": [["x", "x"]]},
]}


@pytest.mark.parametrize("command", ["semigroup", "equations", "order", "rbox", "cph"])
def test_slice_named_like_a_transpose_exits_2(command, tmp_path):
    p = tmp_path / "clash.json"
    p.write_text(json.dumps(TRANSPOSE_CLASH))
    r = run_process(command, str(p), "--transposes")
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: slice 'tA' is named like the transpose")
    assert len(r.stderr.splitlines()) == 1
    assert r.stdout == ""


@pytest.mark.parametrize("command", sorted(main.commands))
def test_help_is_eager(runner, tmp_path, command):
    """--help wins over file arguments that load, even unreadable ones."""
    for args in ([command, "--help"], [command, str(tmp_path / "missing.json"), "--help"]):
        r = runner.invoke(main, args)
        assert r.exit_code == 0, r.output
        assert r.stdout.startswith("Usage: ")


JSON = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-1, 3), st.floats(-1, 2), st.text("ab1", max_size=2)
    ),
    lambda kids: st.one_of(
        st.lists(kids, max_size=3), st.dictionaries(st.text("ab", max_size=2), kids, max_size=2)
    ),
    max_leaves=6,
)

# One well-formed document per loader, and the commands that read it.
LOADERS = {
    "network": (
        {"actors": ["a", "b"], "relations": [{"name": "C", "ties": [["a", "b"]]}]},
        ["census IN", "order IN", "dot multigraph IN"],
    ),
    "semigroup": (
        {"st": ["a", "b"], "table": [[1, 2], [2, 2]], "generators": [["a", 1]]},
        ["decomp IN", "dot cayley IN"],
    ),
    "poset": (
        {"labels": NETCS_ST, "matrix": NETCS_EYE},
        ["dot hasse IN", "decomp SG --mode mca --poset IN"],
    ),
    "context": (
        {"objects": ["a", "b"], "attributes": ["x"], "incidence": [[1], [0]]},
        ["galois IN", "filter IN --of 1", "dot bipartite IN"],
    ),
}


@st.composite
def malformed(draw, value):
    """value with one part (or all of it) replaced by some JSON, or dropped."""
    parts = (
        list(value) if isinstance(value, dict)
        else list(range(len(value))) if isinstance(value, list) else []
    )
    if not parts or draw(st.integers(0, 3)) == 0:
        return draw(JSON)
    key = draw(st.sampled_from(parts))
    value = copy.copy(value)
    if draw(st.integers(0, 4)) == 0:
        del value[key]
    else:
        value[key] = draw(malformed(value[key]))
    return value


class TestMalformedJsonFuzz:
    @pytest.mark.parametrize("kind", sorted(LOADERS))
    @settings(derandomize=True, deadline=None, max_examples=75)
    @given(data=st.data())
    def test_every_loader_exits_0_or_2(self, runner, tmp_path_factory, kind, data):
        doc, commands = LOADERS[kind]
        path = tmp_path_factory.mktemp("fuzz") / "in.json"
        path.write_text(json.dumps(data.draw(malformed(doc))))
        for command in commands:
            args = [
                {"IN": str(path), "SG": str(DATA / "netcs_semigroup.json")}.get(a, a)
                for a in command.split()
            ]
            r = runner.invoke(main, args)
            assert r.exit_code in (0, 2), (args, r.output, r.exception)
            assert "Traceback" not in r.output


def test_version_flag(runner):
    r = runner.invoke(main, ["--version"])
    assert r.exit_code == 0
    assert "relalg" in r.output
    assert relalg.__version__ in r.output
