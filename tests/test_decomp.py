import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import oracles
from conftest import canonical, golden
from relalg import (
    DecompositionTooLargeError,
    MultiplexNetwork,
    Poset,
    RelationMatrix,
    ValidationError,
    build_semigroup,
    decompose,
    factorize,
    find_congruences,
    generate_strings,
    is_congruence,
    semigroup_from_dict,
    string_partial_order,
)
from relalg import decomp


@pytest.fixture(scope="module")
def netcs_sg(netcs):
    return build_semigroup(generate_strings(netcs), "symbolic")


@pytest.fixture(scope="module")
def netcs_po(netcs):
    return string_partial_order(generate_strings(netcs))


def tiny_semigroup(table, labels=None):
    n = len(table)
    labels = labels or [chr(ord("a") + i) for i in range(n)]
    data = {"st": labels, "table": [[x + 1 for x in row] for row in table]}
    return semigroup_from_dict(data)


class TestFindCongruences:
    def test_contains_every_reference_partition(self, netcs_sg):
        found = {c.vector for c in find_congruences(netcs_sg)}
        for vector in golden("netcs_congruences.json")["cc"]:
            assert canonical(vector) in found

    def test_all_satisfy_substitution_property(self, netcs_sg):
        table = netcs_sg.index_table()
        for c in find_congruences(netcs_sg):
            assert is_congruence(netcs_sg, c.vector)
            blocks = {}
            for i, cls in enumerate(c.vector):
                blocks.setdefault(cls, set()).add(i)
            assert oracles.is_congruence(table, list(blocks.values()))

    def test_sorted_finest_first_and_unique(self, netcs_sg):
        found = find_congruences(netcs_sg)
        vectors = [c.vector for c in found]
        assert len(set(vectors)) == len(vectors)
        sizes = [c.n_classes for c in found]
        assert sizes == sorted(sizes, reverse=True)

    def test_identity_partition_never_reported(self, netcs_sg):
        n = netcs_sg.order
        assert tuple(range(1, n + 1)) not in {
            c.vector for c in find_congruences(netcs_sg)
        }

    def test_subset_of_brute_force_enumeration(self):
        # 3-cycle rotation closes into a 3-element group; small enough to
        # enumerate every partition
        actors = ["a", "b", "c"]
        rot = RelationMatrix.from_ties("R", actors, [("a", "b"), ("b", "c"), ("c", "a")])
        sg = build_semigroup(generate_strings(MultiplexNetwork(actors, [rot])))
        table = sg.index_table()
        everything = oracles.all_congruences(table)
        for c in find_congruences(sg):
            assert c.vector in everything

    def test_one_element_semigroup_has_no_congruence(self):
        sg = tiny_semigroup([[0]])
        assert find_congruences(sg) == []

    def test_classes_view(self, netcs_sg):
        c = next(
            c for c in find_congruences(netcs_sg)
            if c.vector == canonical(golden("netcs_congruences.json")["cc"][3])
        )
        classes = c.classes()
        assert classes[1] == ["C", "F", "CC", "CF", "FF", "KC", "KF", "CKF"]
        assert classes[2] == ["K", "CK"]


def z(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


LEFT_ZERO_5 = [  # and the right-zero band's: each pair alone, as every partition is a congruence
    (1, 1, 2, 3, 4), (1, 2, 1, 3, 4), (1, 2, 2, 3, 4), (1, 2, 3, 1, 4), (1, 2, 3, 2, 4),
    (1, 2, 3, 3, 4), (1, 2, 3, 4, 1), (1, 2, 3, 4, 2), (1, 2, 3, 4, 3), (1, 2, 3, 4, 4),
]

MAX_CHAIN_6 = [  # one interval of the chain merged, for each of the 15 intervals
    (1, 1, 2, 3, 4, 5), (1, 2, 2, 3, 4, 5), (1, 2, 3, 3, 4, 5), (1, 2, 3, 4, 4, 5),
    (1, 2, 3, 4, 5, 5), (1, 1, 1, 2, 3, 4), (1, 2, 2, 2, 3, 4), (1, 2, 3, 3, 3, 4),
    (1, 2, 3, 4, 4, 4), (1, 1, 1, 1, 2, 3), (1, 2, 2, 2, 2, 3), (1, 2, 3, 3, 3, 3),
    (1, 1, 1, 1, 1, 2), (1, 2, 2, 2, 2, 2), (1, 1, 1, 1, 1, 1),
]


class TestPairGraph:
    """Edge tables of the pair graph: cycles, self-loops, pairs whose every
    translate is equal, and tables too small to have pairs."""

    @pytest.mark.parametrize(
        "table, generators, want",
        [
            (z(6), [1], [(1, 2, 3, 1, 2, 3), (1, 2, 1, 2, 1, 2), (1,) * 6]),
            (z(6), None, [(1, 2, 3, 1, 2, 3), (1, 2, 1, 2, 1, 2), (1,) * 6]),
            (z(5), None, [(1,) * 5]),
            ([[0] * 6] * 6, None, [(1,) * 6]),
            ([[i] * 5 for i in range(5)], None, LEFT_ZERO_5),
            ([list(range(5))] * 5, None, LEFT_ZERO_5),
            ([[max(i, j) for j in range(6)] for i in range(6)], None, MAX_CHAIN_6),
            ([[0]], None, []),
            ([[0, 1], [1, 0]], None, [(1, 1)]),
            ([[0, 0], [0, 1]], None, [(1, 1)]),
        ],
        ids=["z6-generator", "z6", "z5", "null6", "left-zero5", "right-zero5", "max-chain6",
             "order1", "order2-group", "order2-chain"],
    )
    def test_edge_tables(self, table, generators, want):
        sg = tiny_semigroup(table)
        if generators is not None:
            data = dict(sg.to_dict(), generators=[[f"g{g}", g + 1] for g in generators])
            sg = semigroup_from_dict(data)
        assert [c.vector for c in find_congruences(sg)] == want
        assert want == oracles.congruence_vectors(table)

    def test_fewer_closures_than_seed_pairs(self, netcs_sg, monkeypatch):
        # a pair that a result below holds is not closed again
        n = netcs_sg.order
        parts = []
        pair_pass = decomp._pair_pass

        def counted(maps, start, ids, xs, ys, close, *rest):
            def counting(block):
                parts.append(len(block))
                return close(block)
            return pair_pass(maps, start, ids, xs, ys, counting, *rest)

        monkeypatch.setattr(decomp, "_pair_pass", counted)
        find_congruences(netcs_sg)
        assert 0 < sum(parts) < n * (n - 1) // 2

    def test_blocks_of_one_matrix_change_nothing(self, netcs_sg, monkeypatch):
        want = [c.vector for c in find_congruences(netcs_sg)]
        n = netcs_sg.order
        monkeypatch.setattr(decomp, "_BLOCK_CELLS", n * n)
        assert [c.vector for c in find_congruences(netcs_sg)] == want
        assert want == oracles.congruence_vectors(netcs_sg.index_table())


class TestBudget:
    """A search that would hold more bytes than its cap raises before the
    gather (12 bytes an edge entry) or right after the components are
    found (one result for each: n int32 for a congruence, n x n bools for a
    quasi-order)."""

    @staticmethod
    def search(kind, sg, po, cap=None):
        return find_congruences(sg, max_bytes=cap) if kind == "cc" else factorize(sg, po, cap)

    @pytest.mark.parametrize("kind", ["cc", "pi"])
    def test_cap_before_the_gather(self, netcs_sg, netcs_po, kind):
        with pytest.raises(DecompositionTooLargeError) as exc:
            self.search(kind, netcs_sg, netcs_po, 100)
        n, rows = netcs_sg.order, len(decomp._translations(netcs_sg)[1])
        assert exc.value.cap == 100 and exc.value.need % (12 * rows) == 0
        if kind == "cc":   # one node per unordered pair
            assert exc.value.need == 12 * rows * n * (n - 1) // 2

    @staticmethod
    def components_counted(monkeypatch):
        """A list that each later search appends its number of components to."""
        counts = []
        tarjan = decomp._components

        def counted(succ):
            comp = tarjan(succ)
            counts.append(max(comp, default=-1) + 1)
            return comp

        monkeypatch.setattr(decomp, "_components", counted)
        return counts

    @pytest.mark.parametrize("kind", ["cc", "pi"])
    def test_cap_after_the_components(self, netcs_sg, netcs_po, kind, monkeypatch):
        sg = netcs_sg
        if kind == "cc":
            # netcs's congruences are charged less than their gather; a nilpotent
            # a, a^2, ..., a^n = 0 has a pair graph without cycles, one component a pair
            n = 10
            table = [[min(i + j + 1, n - 1) for j in range(n)] for i in range(n)]
            sg = semigroup_from_dict(dict(tiny_semigroup(table).to_dict(), generators=[["a", 1]]))
        with pytest.raises(DecompositionTooLargeError) as exc:
            self.search(kind, sg, netcs_po, 0)
        gather = exc.value.need
        counts = self.components_counted(monkeypatch)
        with pytest.raises(DecompositionTooLargeError) as exc:
            self.search(kind, sg, netcs_po, gather)   # past the gather only
        need, n = exc.value.need, sg.order
        assert need > gather and need == counts[-1] * (4 * n if kind == "cc" else n * n)
        got, want = (self.search(kind, sg, netcs_po, cap) for cap in (need, None))
        if kind == "cc":
            assert got == want
        else:
            assert [m.key() for m in got.members] == [m.key() for m in want.members]

    def test_a_cap_between_the_two_charges(self, netcs_sg, netcs_po, monkeypatch):
        # at the congruence gather's cap, a congruence a component (4n bytes)
        # fits where an n x n result would not, and factorize raises
        with pytest.raises(DecompositionTooLargeError) as exc:
            find_congruences(netcs_sg, max_bytes=0)
        cap, n = exc.value.need, netcs_sg.order
        counts = self.components_counted(monkeypatch)
        assert find_congruences(netcs_sg, max_bytes=cap) == find_congruences(netcs_sg)
        assert counts[0] * 4 * n <= cap < counts[0] * n * n
        with pytest.raises(DecompositionTooLargeError):
            factorize(netcs_sg, netcs_po, cap)

    def test_cap_from_the_environment(self, netcs_sg, monkeypatch):
        monkeypatch.setenv("RELALG_MAX_DECOMP_BYTES", "1")
        with pytest.raises(DecompositionTooLargeError):
            find_congruences(netcs_sg)
        assert find_congruences(netcs_sg, max_bytes=10**9)


def test_searches_do_not_load_numpy_ma():
    # numpy's np.unique without return_index imports numpy.ma on first use
    code = (
        "import json, sys\n"
        "from relalg import decompose, factorize, find_congruences, fixtures\n"
        "from relalg import build_semigroup, generate_strings, string_partial_order\n"
        "st = generate_strings(fixtures.netcs())\n"
        "sg, po = build_semigroup(st), string_partial_order(st)\n"
        "cc, lattice = find_congruences(sg), factorize(sg, po)\n"
        "decompose(sg, cc)\n"
        "decompose(sg, lattice, mode='atoms'), decompose(sg, lattice, mode='mca')\n"
        "print(json.dumps('numpy.ma' in sys.modules))"
    )
    src = str(pathlib.Path(decomp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=120, check=True,
    )
    assert json.loads(proc.stdout) is False


class TestFactorize:
    def test_two_element_chain_has_single_proper_coarsening(self):
        sg = tiny_semigroup([[0, 0], [0, 1]])
        po = Poset(["a", "b"], [[1, 1], [0, 1]])
        lattice = factorize(sg, po)
        nontrivial = [
            m for m in lattice.members if not np.array_equal(m.matrix, lattice.base)
        ]
        assert len(nontrivial) == 1
        assert len(lattice.atoms()) == 1
        assert lattice.atoms()[0].partition() == (1, 1)

    def test_netcs_lattice_shape(self, netcs_sg, netcs_po):
        lattice = factorize(netcs_sg, netcs_po)
        atoms = lattice.atoms()
        assert len(atoms) == 2
        sizes = sorted(
            lattice.designated_complement(a).size for a in atoms
        )
        assert sizes == [51, 71]

    def test_members_are_order_congruences(self, netcs_sg, netcs_po):
        table = netcs_sg.index_table()
        n = len(table)
        for member in factorize(netcs_sg, netcs_po).members:
            q = member.matrix
            assert (q >= netcs_po.matrix).all()
            assert q.diagonal().all()
            # transitive
            assert not (((q.astype(np.uint8) @ q.astype(np.uint8)) > 0) & ~q).any()
            # compatible with multiplication on both sides
            for x in range(n):
                for y in range(n):
                    if not q[x, y]:
                        continue
                    for s in range(n):
                        assert q[table[x][s], table[y][s]]
                        assert q[table[s][x], table[s][y]]
            # the mutual-pair partition respects the substitution property
            assert is_congruence(netcs_sg, member.partition())

    def test_label_mismatch_rejected(self, netcs_sg):
        with pytest.raises(ValidationError):
            factorize(netcs_sg, Poset(["x"], [[1]]))

    @pytest.mark.parametrize("cells", [1, 2])
    def test_seed_blocks_do_not_change_the_members(self, netcs_sg, netcs_po, monkeypatch, cells):
        def members(lattice):
            return [(m.seed, m.key()) for m in lattice.members]

        want = members(factorize(netcs_sg, netcs_po))
        n = netcs_sg.order
        monkeypatch.setattr(decomp, "_BLOCK_CELLS", cells * n * n)
        assert members(factorize(netcs_sg, netcs_po)) == want
        table = np.array(netcs_sg.index_table())
        st = netcs_sg.st
        assert want == [
            (seed and (st[seed[0]], st[seed[1]]), q.tobytes())
            for seed, q in oracles.pi_members(table, netcs_po.matrix)
        ]

    def test_fewer_closures_than_seeds(self, netcs_sg, netcs_po, monkeypatch):
        # a seed takes the result below it that holds it; only the others are closed
        n = netcs_sg.order
        matrices = []
        closure = decomp.transitive_closure

        def counted(m):
            matrices.append(np.size(m) // (n * n))
            return closure(m)

        monkeypatch.setattr(decomp, "transitive_closure", counted)
        factorize(netcs_sg, netcs_po)
        seeds = n * n - int(netcs_po.matrix.sum())
        assert 0 < sum(matrices) < seeds

    @pytest.mark.parametrize(
        "order",
        [[[i <= j for j in range(6)] for i in range(6)],
         [[i == j or (i, j) == (0, 3) for j in range(6)] for i in range(6)]],
        ids=["chain-closes-to-everything", "one-pair-closes-to-mod-3"],
    )
    def test_orders_not_compatible_with_the_table(self, order):
        sg, base = tiny_semigroup(z(6)), np.array(order)
        lattice = factorize(sg, Poset(sg.st, base))
        want = oracles.pi_members(np.array(z(6)), base)
        assert [(m.seed, m.key()) for m in lattice.members] == [
            (seed and (sg.st[seed[0]], sg.st[seed[1]]), q.tobytes()) for seed, q in want
        ]


# Light's test fails on generator a: (aa)a = ba = c, a(aa) = ab = b.
NON_ASSOCIATIVE = {
    "st": ["a", "b", "c"], "table": [[2, 2, 3], [3, 1, 3], [2, 2, 3]], "generators": [["a", 1]],
}


class TestAssociativity:
    @pytest.mark.parametrize("generators", [True, False])
    def test_non_associative_table_rejected(self, generators):
        data = dict(NON_ASSOCIATIVE)
        if not generators:
            del data["generators"]
        sg = semigroup_from_dict(data)
        with pytest.raises(ValidationError, match="not associative"):
            find_congruences(sg)
        with pytest.raises(ValidationError, match="not associative"):
            factorize(sg, Poset(sg.st, np.eye(3, dtype=bool)))

    def test_translations_found_once_per_table(self, netcs_sg):
        assert decomp._translations(netcs_sg) is decomp._translations(netcs_sg)


class TestDecompose:
    def test_reference_meet_complement_reductions(self, netcs_sg, netcs_po):
        reductions = decompose(netcs_sg, factorize(netcs_sg, netcs_po), mode="mca")
        got = [list(r.vector) for r in reductions]
        assert got == golden("netcs_congruences.json")["mca"]

    def test_quotient_orders_are_posets(self, netcs_sg, netcs_po):
        for r in decompose(netcs_sg, factorize(netcs_sg, netcs_po), mode="mca"):
            assert r.order.check() is r.order

    def test_quotient_tables_close_over_class_representatives(
        self, netcs_sg, netcs_po
    ):
        for r in decompose(netcs_sg, factorize(netcs_sg, netcs_po), mode="mca"):
            reps = {row_label for row in r.table for row_label in row}
            assert reps <= set(r.order.labels)

    def test_atoms_mode_uses_atom_partitions(self, netcs_sg, netcs_po):
        lattice = factorize(netcs_sg, netcs_po)
        reductions = decompose(netcs_sg, lattice, mode="atoms")
        want = [a.partition() for a in lattice.atoms()]
        assert [r.vector for r in reductions] == want

    def test_cc_mode_quotients_each_congruence(self, netcs_sg):
        congruences = find_congruences(netcs_sg)
        reductions = decompose(netcs_sg, congruences, mode="cc")
        assert [r.vector for r in reductions] == [c.vector for c in congruences]
        for r in reductions:
            assert len(r.table) == max(r.vector)

    def test_non_congruence_partition_rejected(self, netcs_sg):
        from relalg.decomp import Congruence

        bogus = Congruence(netcs_sg.st, canonical([1, 1] + [2] * 8))
        if not is_congruence(netcs_sg, bogus.vector):
            with pytest.raises(ValidationError):
                decompose(netcs_sg, [bogus], mode="cc")

    @pytest.mark.parametrize("relabel", [
        lambda c: c, lambda c: 3 - c, lambda c: 10 * c, lambda c: "ab"[c - 1],
    ], ids=["canonical", "swapped", "times-ten", "letters"])
    def test_any_class_ids_give_the_canonical_quotient(self, netcs_sg, relabel):
        vector = tuple(relabel(c) for c in (1, 2, 1, 1, 1, 1, 2, 1, 1, 1))
        assert is_congruence(netcs_sg, vector)
        congruence = decomp.Congruence(netcs_sg.st, vector)
        assert congruence.n_classes == 2
        (r,) = decompose(netcs_sg, [congruence], mode="cc")
        assert r.vector == (1, 2, 1, 1, 1, 1, 2, 1, 1, 1)
        assert r.table == [["C", "C"], ["C", "F"]]

    @pytest.mark.parametrize("length", [0, 9, 11])
    def test_vector_of_the_wrong_length_rejected(self, netcs_sg, length):
        vector = ([1, 2] * 6)[:length]
        with pytest.raises(ValidationError, match="length"):
            decompose(netcs_sg, [decomp.Congruence(netcs_sg.st, vector)], mode="cc")
        with pytest.raises(ValidationError, match="length"):
            is_congruence(netcs_sg, vector)

    def test_unknown_mode(self, netcs_sg):
        with pytest.raises(ValidationError):
            decompose(netcs_sg, [], mode="upside-down")

    def test_mca_requires_lattice(self, netcs_sg):
        with pytest.raises(ValidationError):
            decompose(netcs_sg, [], mode="mca")
