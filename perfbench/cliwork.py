"""The cli workload: every command as a user runs it.

Each analysis is one fresh `python -m relalg.cli ...` process, run from the
checkout with PYTHONPATH=src and no install, on JSON files written at set-up
into a temporary directory inside the checkout. Outputs on the paper
fixtures are compared with the published results in tests/data/; outputs on
the seeded inputs with checks.py.
"""

import json
import os
import re
import subprocess
import sys

import numpy as np

import checks
import inputs
from relalg import (
    MultiplexNetwork,
    RelationMatrix,
    build_semigroup,
    fixtures,
    generate_strings,
    string_partial_order,
)
from relalg.netcore import network_to_dict
from workloads import Analysis, network

# Malformed inputs that exit 1 with a traceback instead of exiting 2; each
# is a fault named in CHANGES.md and fails on every run.
MALFORMED = {
    "bad_tie": {"actors": ["a", "b"], "relations": [{"name": "C", "ties": [["a"]]}]},
    "null_cell": {"st": ["a", "b"], "table": [[1, None], [2, 1]]},
    "int_actors": {"actors": 5, "relations": [{"name": "C", "ties": []}]},
}

TIMEOUT = 120


def run_cli(root, argv):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "relalg.cli", *argv],
        cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT,
    )
    return proc.returncode, proc.stdout, proc.stderr


def command(root, label, argv, check_out=None, expect=0):
    """One process; check_out(stdout) -> problem or None."""
    op = "cli." + argv[0]

    def run(tr):
        out = tr.call(op, run_cli, root, argv)
        tr.count("cli.stdout_bytes", len(out[1]))
        return out

    def check(out, rng):
        code, stdout, stderr = out
        if code != expect or "Traceback" in stderr:
            last = stderr.strip().splitlines()[-1:] or [""]
            return [(op, f"exit {code}, expected {expect}: {last[0]}")]
        return [(op, check_out(stdout, rng) if check_out else None)]

    faults = frozenset([op]) if expect == 2 else frozenset()
    return Analysis(label, run, check, faults)


# ------------------------------------------------------------------ parsing


def matrix_rows(lines):
    """(row labels, cell rows) of a matrix printed by the CLI."""
    rows = [l.split() for l in lines if l.strip()]
    return [r[0] for r in rows[1:]], [r[1:] for r in rows[1:]]


def blocks(stdout):
    """Lines under each "$name" heading."""
    out, name = {}, None
    for line in stdout.splitlines():
        if line.startswith("$"):
            name = line[1:]
            out[name] = []
        elif name is not None:
            out[name].append(line)
    return out


def census_row(counts):
    total = sum(v for k, v in counts.items() if k != "null")
    return ["TOTAL", str(total)] + [str(counts[c]) for c in checks.CLASSES]


_CONCEPT = re.compile(r"^c(\d+): \{(.*)\} \{(.*)\}$")


def concept_lines(stdout):
    out = []
    for line in stdout.splitlines():
        m = _CONCEPT.match(line)
        if m:
            out.append((int(m.group(1)), set(filter(None, m.group(2).split(", "))),
                        set(filter(None, m.group(3).split(", ")))))
    return out


# ------------------------------------------------------------------- inputs


def signed_network():
    """netcsg as a positive and a negative slice that fold back into it."""
    s = fixtures.netcsg()
    return MultiplexNetwork(s.actors, [
        RelationMatrix("P", s.actors, np.isin(s.cells, ["p", "a"])),
        RelationMatrix("N", s.actors, np.isin(s.cells, ["n", "a"])),
    ])


def cli(rng, quick, root, tmp):
    """Write the inputs into tmp and return the command list."""
    data = os.path.join(root, "tests", "data")

    def golden(name):
        with open(os.path.join(data, name), encoding="utf-8") as fh:
            return json.load(fh)

    def put(name, obj):
        path = os.path.join(tmp, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    ncc, netcs = fixtures.ncc(), fixtures.netcs()
    g20 = fixtures.g20()
    strings = generate_strings(netcs)
    f = {
        "ncc": put("ncc", network_to_dict(ncc)),
        "netcs": put("netcs", network_to_dict(netcs)),
        "netcsg": put("netcsg", network_to_dict(signed_network())),
        "g20": put("g20", g20.to_dict()),
        "sg": put("netcs_sg", build_semigroup(strings, "symbolic").to_dict()),
        "po": put("netcs_po", string_partial_order(strings).to_dict()),
    }
    for name, obj in MALFORMED.items():
        f[name] = put(name, obj)
    n = 40 if quick else 400
    big = network("ABC", inputs.random_slices(rng, n, 3, 0.2 if quick else 0.05))
    f["big"] = put("big", network_to_dict(big))
    target = 30 if quick else 300
    sg_mats, = inputs.nearest_order(rng, 4 if quick else 6, 3, 0.25, target, 1, 60 if quick else 600)
    f["sgnet"] = put("sgnet", network_to_dict(network("ABC", sg_mats)))
    sg_out, box_out, big_out = (os.path.join(tmp, name) for name in (
        "netcs_out.json", "ncc_box.json", "sgnet_out.json"))
    no, na = (15, 8) if quick else (60, 25)
    ctx_inc = inputs.context_near(rng, no, na, 0.2, 17 if quick else 330, 5 if quick else 20)
    f["ctx"] = put("ctx", {
        "objects": inputs.labels("o", no), "attributes": inputs.labels("m", na),
        "incidence": ctx_inc.astype(int).tolist(),
    })

    ncc_stack, ncc_actors = checks.stack_of(ncc), list(ncc.actors)
    ncc_letters = checks.letters_of(ncc)
    netcs_letters = checks.letters_of(netcs)
    sg_letters = dict(zip("ABC", sg_mats))
    classes = {"339": "2", "354": "3", "357": "1", "395": "3", "398": "1"}

    def c_census(stack):
        def check(out, rng):
            got = out.splitlines()[1].split()
            want = census_row(checks.census_counts(stack))
            return None if got == want else f"census row {got} != {want}"
        return check

    def c_census_stats(out, rng):
        bad = c_census(checks.stack_of(big))(out, rng)
        if bad:
            return bad
        *_, coh, rec = checks.bundle_stats(checks.stack_of(big))
        want = [f"cohesion: {coh:.7f}", f"reciprocity: {rec:.5f}"]
        return None if out.splitlines()[2:4] == want else "cohesion or reciprocity differs"

    def c_pairs(stack, actors, names, wanted):
        def check(out, rng):
            keep, cells = checks.relational_cells(stack, actors, wanted)
            want = []
            for name, m in zip(names, cells):
                want.append(f"${name}")
                want += [f"  {keep[i]}, {keep[j]}" for i, j in zip(*np.nonzero(m))]
            return None if out.splitlines() == want else "tie pairs differ"
        return check

    def c_semigroup_golden(out, rng):
        with open(sg_out, encoding="utf-8") as fh:
            got = json.load(fh)
        want = golden("netcs_semigroup.json")
        if out.splitlines()[0] != f"order: {len(want['st'])}":
            return "order line differs"
        return None if (got["st"], got["table"]) == (want["st"], want["table"]) else "table differs from tests/data"

    def c_equations(out, rng):
        got = {}
        for line in out.splitlines():
            key, members = line.split(": ")
            got[key] = set(members.split())
        want = golden("netcs_equations.json")
        ok = list(got) == list(want) and all(got[k] == set(v) for k, v in want.items())
        return None if ok else "equations differ from tests/data"

    def c_matrix(name, key="labels"):
        def check(out, rng):
            want = golden(name)
            labels, rows = matrix_rows(out.splitlines())
            ok = labels == want[key] and [[int(x) for x in r] for r in rows] == want["matrix"]
            return None if ok else f"matrix differs from tests/data/{name}"
        return check

    def c_rbox(out, rng):
        with open(box_out, encoding="utf-8") as fh:
            got = json.load(fh)
        want = list(checks.level_images(ncc_letters, 2))
        ok = got["labels"] == ["".join(w) for w, _ in want] and all(
            np.array_equal(np.array(s, bool), img) for s, (_, img) in zip(got["slices"], want)
        ) and len(got["slices"]) == len(want)
        return None if ok else "relation box differs"

    def c_reduce(out, rng):
        order, images = checks.blocked_images(ncc_stack, ncc_actors, classes)
        if out.splitlines()[0] != "classes: " + " ".join(order):
            return "class line differs"
        got = blocks(out)
        for name, want in zip(ncc_letters, images):
            _, rows = matrix_rows(got[name])
            if [[int(x) for x in r] for r in rows] != want.astype(int).tolist():
                return f"blocked image {name} differs"
        return None

    def vectors(out):
        return [tuple(int(x) for x in l.split()[1:]) for l in out.splitlines() if l.startswith("[")]

    def c_decomp_cc(out, rng):
        want = golden("netcs_congruences.json")
        pos = {s: i for i, s in enumerate(want["st"])}
        table = np.array([[pos[c] for c in row] for row in golden("netcs_semigroup.json")["table"]])
        got = vectors(out)
        if not all(checks.canonical(v) in got for v in want["cc"]):
            return "a published congruence is missing"
        if not all(checks.substitution_ok(table, v) for v in got):
            return "a printed vector is not a congruence"
        return None

    def c_decomp_mca(out, rng):
        got = [list(v) for v in vectors(out)]
        return None if got == golden("netcs_congruences.json")["mca"] else "mca vectors differ"

    def c_signed(out, rng):
        want = golden("ncc_signed.json")["negative_first"]
        lines = out.splitlines()
        _, rows = matrix_rows(lines[1:])
        ok = lines[0] == "val: " + " ".join(want["val"]) and rows == want["cells"]
        return None if ok else "signed matrix differs from tests/data"

    def c_semiring(out, rng):
        lines = out.splitlines()
        n = len(golden("netcsg_balance_closure.json")["actors"])
        _, rows = matrix_rows(lines[1:n + 2])
        ok = rows == golden("netcsg_balance_closure.json")["cells"] and "verdict: balanced" in lines
        return None if ok else "balance closure differs from tests/data"

    def c_galois_g20(out, rng):
        want = golden("g20_concepts.json")
        lines = out.splitlines()
        got = concept_lines(out)
        if lines[0] != f"concepts: {want['count']}":
            return "concept count differs"
        for (_, intent, ext), w in zip(got, want["full_prefix"]):
            if intent != set(w["intent"]) or ext != set(w["extent"]):
                return "leading concepts differ from tests/data"
        return c_matrix("g20_concept_order.json")(
            "\n".join(lines[1 + want["count"]:]), rng)

    def c_filter(out, rng):
        want = golden("g20_filters.json")["ideal_G7_BRICS"]
        return None if out.splitlines() == [f"{k}: {v}" for k, v in want.items()] else "ideal differs"

    def c_hasse(out, rng):
        st = golden("netcs_semigroup.json")["st"]
        images = [checks.word_image(netcs_letters, tuple(w)) for w in st]
        return checks.check_hasse(st, checks.containment(images), out, np.arange(len(st)))

    def c_cayley(out, rng):
        want = golden("netcs_semigroup.json")
        pos = {s: i for i, s in enumerate(want["st"])}
        edges = {(x, want["table"][i][pos[g]], g)
                 for i, x in enumerate(want["st"]) for g in netcs_letters}
        return None if checks.dot_edges(out) == edges else "cayley edges differ"

    def c_semigroup_big(out, rng):
        with open(big_out, encoding="utf-8") as fh:
            got = json.load(fh)
        order = inputs.closure_order(sg_mats, target * 2)
        if out.splitlines()[0] != f"order: {order}" or got["order"] != order:
            return f"order differs from {order}"
        images = [checks.word_image(sg_letters, tuple(w)) for w in got["st"]]
        index = checks.image_index(images)
        for i, j in zip(rng.integers(0, order, checks.SAMPLE), rng.integers(0, order, checks.SAMPLE)):
            if got["table"][i][j] - 1 != index.get(checks.bool_product(images[i], images[j]).tobytes()):
                return "table cell differs from the product of its images"
        return None

    def c_galois_ctx(out, rng):
        got = concept_lines(out)
        want = inputs.all_extents(ctx_inc)
        exts = [sum(1 << int(o[1:]) for o in ext) for _, _, ext in got]
        if set(exts) != want or len(exts) != len(want):
            return f"{len(exts)} concepts, expected {len(want)}"
        for _, intent, ext in got:
            rows = [int(o[1:]) for o in ext]
            shared = {f"m{j}" for j in np.nonzero(ctx_inc[rows].all(axis=0))[0]}
            if intent != shared:
                return "an intent is not the derivation of its extent"
        e = np.array([[(x >> i) & 1 for i in range(no)] for x in exts], dtype=bool)
        _, rows = matrix_rows(out.splitlines()[1 + len(got):])
        ok = np.array_equal(np.array(rows, dtype=int).astype(bool), checks.witnesses(e, ~e.T) == 0)
        return None if ok else "concept order differs"

    spec = [
        ("census-ncc", ["census", f["ncc"]], c_census(ncc_stack)),
        ("relsys-ncc", ["relsys", f["ncc"], "--bonds", "tent", "--format", "pairs"],
         c_pairs(ncc_stack, ncc_actors, list(ncc_letters), ["tent"])),
        ("semigroup-netcs", ["semigroup", f["netcs"], "--symbolic", "--out", sg_out], c_semigroup_golden),
        ("equations-netcs", ["equations", f["netcs"], "--k", "3"], c_equations),
        ("order-ncc", ["order", f["ncc"]], c_matrix("ncc_partial_order.json")),
        ("rbox-ncc", ["rbox", f["ncc"], "--k", "2", "--out", box_out], c_rbox),
        ("cph-ncc", ["cph", f["ncc"]], c_matrix("ncc_cph.json", "actors")),
        ("reduce-ncc", ["reduce", f["ncc"], "--classes", ",".join(f"{a}={c}" for a, c in classes.items())],
         c_reduce),
        ("decomp-cc-netcs", ["decomp", f["sg"]], c_decomp_cc),
        ("decomp-mca-netcs", ["decomp", f["sg"], "--poset", f["po"], "--mode", "mca"], c_decomp_mca),
        ("signed-ncc", ["signed", f["ncc"], "--positive", "C", "--negative", "F"], c_signed),
        ("semiring-netcsg", ["semiring", f["netcsg"], "--positive", "P", "--negative", "N", "--closure"],
         c_semiring),
        ("galois-g20", ["galois", f["g20"], "--order"], c_galois_g20),
        ("filter-g20", ["filter", f["g20"], "--of", "G7,BRICS", "--ideal"], c_filter),
        ("dot-hasse-netcs", ["dot", "hasse", f["po"]], c_hasse),
        ("dot-cayley-netcs", ["dot", "cayley", f["sg"]], c_cayley),
        (f"census-n{n}", ["census", f["big"], "--stats"], c_census_stats),
        (f"relsys-n{n}", ["relsys", f["big"], "--bonds", "strong", "--format", "pairs"],
         c_pairs(checks.stack_of(big), list(big.actors), list("ABC"), checks.STRONG)),
        ("semigroup-seeded", ["semigroup", f["sgnet"], "--out", big_out], c_semigroup_big),
        (f"galois-{no}x{na}", ["galois", f["ctx"], "--order"], c_galois_ctx),
    ]
    out = [command(root, label, argv, chk) for label, argv, chk in spec]
    out += [
        command(root, "malformed-tie", ["census", f["bad_tie"]], expect=2),
        command(root, "malformed-table-cell", ["decomp", f["null_cell"]], expect=2),
        command(root, "malformed-actors", ["census", f["int_actors"]], expect=2),
    ]
    return out
