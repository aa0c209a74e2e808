import itertools
import math

import pytest

import oracles
from conftest import golden
from relalg import signed
from relalg import (
    BALANCE,
    CLUSTER,
    ComputationError,
    SignedMatrix,
    ValidationError,
    balance_closure,
    is_balanced,
    make_signed,
    semiring_powers,
    symmetric_closure,
    verify_semiring,
)


def signed_of(name):
    g = golden(name)
    return SignedMatrix(g["actors"], g["cells"])


def cells_dict(s):
    return {
        (i, j): s.cells[i, j]
        for i in range(s.n)
        for j in range(s.n)
        if s.cells[i, j] != "o"
    }


class TestConstruction:
    def test_from_positive_and_negative_slices(self, ncc):
        c, f, _ = ncc.slices
        got = make_signed(c, f)
        want = golden("ncc_signed.json")["negative_first"]
        assert [list(r) for r in got.cells] == want["cells"]
        assert list(got.val) == want["val"]

    def test_swapping_roles_flips_the_signs(self, ncc):
        c, f, _ = ncc.slices
        got = make_signed(f, c)
        want = golden("ncc_signed.json")["positive_first"]
        assert [list(r) for r in got.cells] == want["cells"]
        assert list(got.val) == want["val"]

    def test_netcsg_fixture_matches_reference(self, netcsg):
        want = golden("netcsg.json")
        assert [list(r) for r in netcsg.cells] == want["cells"]
        assert list(netcsg.val) == want["val"]
        assert list(netcsg.actors) == want["actors"]

    def test_actor_mismatch(self, ncc):
        from relalg import RelationMatrix

        c, f, _ = ncc.slices
        other = RelationMatrix.from_ties("F", ["x", "y"], [("x", "y")])
        with pytest.raises(ValidationError):
            make_signed(c, other)

    def test_silent_matrix_reports_single_valence(self):
        s = SignedMatrix(["a", "b"], [["o", "o"], ["o", "o"]])
        assert list(s.val) == ["o"]

    def test_unknown_letter_rejected(self):
        with pytest.raises(ValidationError):
            SignedMatrix(["a", "b"], [["o", "z"], ["o", "o"]])

    def test_multi_letter_cell_rejected(self):
        # a cell is one letter; "pn" is not read as its first letter
        with pytest.raises(ValidationError) as exc:
            SignedMatrix(["a", "b"], [["pn", "o"], ["o", "n"]])
        assert str(exc.value) == "unknown valence letters: ['pn']"

    def test_unknown_letters_are_listed_whole_as_plain_strings(self):
        with pytest.raises(ValidationError) as exc:
            SignedMatrix(["a", "b"], [["xyz", "z"], ["", "z"]])
        assert str(exc.value) == "unknown valence letters: ['', 'xyz', 'z']"

    def test_shape_must_be_square(self):
        with pytest.raises(ValidationError):
            SignedMatrix(["a", "b"], [["o", "o", "o"], ["o", "o", "o"]])

    def test_equality_and_hash(self):
        a = SignedMatrix(["a", "b"], [["o", "p"], ["n", "o"]])
        b = SignedMatrix(["a", "b"], [["o", "p"], ["n", "o"]])
        assert a == b and hash(a) == hash(b)
        assert a != SignedMatrix(["a", "b"], [["o", "p"], ["p", "o"]])


class TestSemiringLaws:
    def test_balance_tables_are_lawful(self):
        verify_semiring(BALANCE)

    def test_cluster_tables_are_lawful(self):
        verify_semiring(CLUSTER)

    def test_broken_tables_detected(self):
        import dataclasses

        bad_add = dict(BALANCE.add_table)
        bad_add[("p", "n")] = "p"
        broken = dataclasses.replace(BALANCE, add_table=bad_add)
        with pytest.raises(AssertionError):
            verify_semiring(broken)

    def test_multiplication_tracks_sign_parity(self):
        # a product of definite signs is the parity of its negative letters
        for length in range(1, 7):
            for seq in itertools.product("pn", repeat=length):
                want = "n" if seq.count("n") % 2 else "p"
                assert oracles.fold_walk(BALANCE.mul_table, list(seq)) == want
                got = oracles.fold_walk(CLUSTER.mul_table, list(seq))
                assert got in ("p", "n", "q")
                if got != "q":
                    assert got == want

    def test_ambivalence_absorbs_addition(self):
        for x in BALANCE.carrier:
            assert BALANCE.add("a", x) == "a"
        for x in CLUSTER.carrier:
            assert CLUSTER.add("a", x) == "a"


class TestSymmetricClosure:
    def test_netcsg_closure_matches_reference(self, netcsg):
        got = symmetric_closure(netcsg)
        assert [list(r) for r in got.cells] == golden("netcsg_symclos_k1.json")["cells"]

    def test_result_is_symmetric(self, netcsg):
        got = symmetric_closure(netcsg)
        assert (got.cells == got.cells.T).all()

    def test_symmetric_input_unchanged(self):
        s = SignedMatrix(["a", "b", "c"], [["o", "p", "n"], ["p", "o", "o"], ["n", "o", "o"]])
        assert symmetric_closure(s) == s

    def test_fusion_of_opposing_arcs(self):
        s = SignedMatrix(["a", "b"], [["o", "p"], ["n", "o"]])
        got = symmetric_closure(s)
        assert got.cells[0, 1] == "a" and got.cells[1, 0] == "a"

    def test_definite_sign_beats_ambivalent(self):
        s = SignedMatrix(["a", "b"], [["o", "p"], ["a", "o"]])
        assert symmetric_closure(s).cells[0, 1] == "p"
        s = SignedMatrix(["a", "b"], [["o", "n"], ["a", "o"]])
        assert symmetric_closure(s).cells[0, 1] == "n"

    def test_one_sided_arc_becomes_mutual(self):
        s = SignedMatrix(["a", "b"], [["o", "n"], ["o", "o"]])
        got = symmetric_closure(s)
        assert got.cells[1, 0] == "n"


class TestSemiringPowers:
    def test_first_power_with_semipaths_is_the_closure(self, netcsg):
        assert semiring_powers(netcsg, k=1) == symmetric_closure(netcsg)

    def test_first_power_without_semipaths_is_the_input(self, netcsg):
        assert semiring_powers(netcsg, k=1, semipaths=False) == netcsg

    def test_large_k_stops_at_the_closure(self, netcsg):
        # once a step leaves the walk sum unchanged, every later step does too
        for spec in (BALANCE, CLUSTER):
            for semipaths in (True, False):
                got = semiring_powers(netcsg, spec=spec, k=10**9, semipaths=semipaths)
                assert got == balance_closure(netcsg, spec=spec, semipaths=semipaths)

    def test_k_must_be_positive(self, netcsg):
        with pytest.raises(ValidationError):
            semiring_powers(netcsg, k=0)

    def test_q_valence_refused_outside_cluster_mode(self):
        s = SignedMatrix(["a", "b"], [["o", "q"], ["o", "o"]])
        with pytest.raises(ComputationError) as exc:
            semiring_powers(s, spec=BALANCE, k=2)
        assert str(exc.value) == "letters ['q'] are outside the balance carrier"
        semiring_powers(s, spec=CLUSTER, k=2)

    @pytest.mark.parametrize("spec", [BALANCE, CLUSTER], ids=["balance", "cluster"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_agrees_with_walk_enumeration(self, spec, k):
        mats = [
            SignedMatrix(["a", "b", "c"], [["o", "p", "o"], ["o", "o", "n"], ["p", "o", "o"]]),
            SignedMatrix(["a", "b", "c"], [["o", "n", "n"], ["n", "o", "o"], ["o", "p", "o"]]),
            SignedMatrix(
                ["a", "b", "c", "d"],
                [
                    ["o", "p", "o", "n"],
                    ["o", "o", "p", "o"],
                    ["n", "o", "o", "p"],
                    ["o", "o", "o", "o"],
                ],
            ),
        ]
        for s in mats:
            for semipaths in (False, True):
                base = symmetric_closure(s) if semipaths else s
                want = oracles.walk_valence_sum(
                    s.n, cells_dict(base), spec.add_table, spec.mul_table, k
                )
                got = semiring_powers(s, spec=spec, k=k, semipaths=semipaths)
                assert [list(r) for r in got.cells] == want


class TestBalanceClosure:
    def test_netcsg_closure_matches_reference(self, netcsg):
        got = balance_closure(netcsg)
        assert [list(r) for r in got.cells] == golden("netcsg_balance_closure.json")["cells"]

    def test_closure_is_a_fixed_point(self, netcsg):
        q = balance_closure(netcsg)
        assert balance_closure(q) == q

    def test_empty_matrix_is_already_closed(self):
        s = SignedMatrix(["a", "b"], [["o", "o"], ["o", "o"]])
        assert balance_closure(s) == s

    def test_disjoint_positive_dyads_stay_disjoint(self):
        s = SignedMatrix(
            ["a", "b", "c", "d"],
            [
                ["o", "p", "o", "o"],
                ["p", "o", "o", "o"],
                ["o", "o", "o", "p"],
                ["o", "o", "p", "o"],
            ],
        )
        q = balance_closure(s)
        for i, j in ((0, 1), (1, 0), (2, 3), (3, 2), (0, 0), (1, 1), (2, 2), (3, 3)):
            assert q.cells[i, j] == "p"
        for i, j in ((0, 2), (0, 3), (1, 2), (1, 3), (2, 0), (3, 0), (2, 1), (3, 1)):
            assert q.cells[i, j] == "o"

    def test_negative_star_splits_center_from_rim(self):
        actors = ["v", "x", "y", "z"]
        cells = [["o"] * 4 for _ in range(4)]
        for j in range(1, 4):
            cells[0][j] = "n"
        q = balance_closure(SignedMatrix(actors, cells))
        for i in range(1, 4):
            assert q.cells[0, i] == "n" and q.cells[i, 0] == "n"
            for j in range(1, 4):
                assert q.cells[i, j] == "p"
        verdict = is_balanced(q)
        assert verdict and verdict.groups == (("v",), ("x", "y", "z"))

    @pytest.mark.parametrize("spec", [BALANCE, CLUSTER], ids=["balance", "cluster"])
    @pytest.mark.parametrize("semipaths", [True, False], ids=["semipaths", "paths"])
    def test_long_alternating_path_closes_by_squaring(self, spec, semipaths, monkeypatch):
        # a path of 70 actors, signs alternating: its ends meet only by a walk
        # of length 69, and the squared sum reaches it within the bound
        n = 70
        cells = [["o"] * n for _ in range(n)]
        for i in range(n - 1):
            cells[i][i + 1] = "pn"[i % 2]
        s = SignedMatrix([f"a{i}" for i in range(n)], cells)
        m = oracles.symmetric_cells(s.cells) if semipaths else s.cells
        assert oracles.gather_walk_sums(m, spec, 68)[0, n - 1] == "o"
        products = []
        real = signed._product
        monkeypatch.setattr(signed, "_product", lambda *a: products.append(1) or real(*a))
        got = balance_closure(s, spec=spec, semipaths=semipaths)
        assert (got.cells == oracles.gather_walk_sums(m, spec)).all()
        assert got.cells[0, n - 1] != "o"
        assert len(products) <= math.ceil(math.log2(n * len(spec.carrier))) + 1


class TestVerdicts:
    def test_netcsg_is_balanced_with_two_groups(self, netcsg):
        verdict = is_balanced(balance_closure(netcsg))
        assert bool(verdict)
        assert verdict.verdict == "balanced"
        assert verdict.groups == (
            ("328", "342", "352", "368", "376", "380", "391", "407", "414"),
            ("394",),
        )

    def test_all_positive_clique_is_one_group(self):
        cells = [["p" if i != j else "o" for j in range(3)] for i in range(3)]
        q = balance_closure(SignedMatrix(["a", "b", "c"], cells))
        verdict = is_balanced(q)
        assert verdict and verdict.groups == (("a", "b", "c"),)

    def test_ambivalent_diagonal_means_imbalance(self):
        # a 3-cycle with one negative edge cannot split into two camps
        s = SignedMatrix(
            ["a", "b", "c"],
            [["o", "p", "o"], ["o", "o", "p"], ["n", "o", "o"]],
        )
        verdict = is_balanced(balance_closure(s))
        assert not verdict
        assert verdict.verdict == "imbalanced"
        assert verdict.witness in ("a", "b", "c")
        assert verdict.groups == ()

    def test_netcsg_under_cluster_semiring(self, netcsg):
        verdict = is_balanced(balance_closure(netcsg, spec=CLUSTER))
        assert verdict.verdict == "clusterable-only"
        assert not verdict

    def test_netcsg_cluster_paths_is_imbalanced(self, netcsg):
        verdict = is_balanced(balance_closure(netcsg, spec=CLUSTER, semipaths=False))
        assert verdict.verdict == "imbalanced"

    def test_single_negative_dyad_balances_into_two_camps(self):
        s = SignedMatrix(["a", "b"], [["o", "n"], ["n", "o"]])
        assert is_balanced(balance_closure(s)).groups == (("a",), ("b",))
        assert is_balanced(balance_closure(s, spec=CLUSTER)).verdict in (
            "balanced",
            "clusterable-only",
        )
