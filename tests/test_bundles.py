import itertools
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from relalg import (
    MultiplexNetwork,
    RelationMatrix,
    UndefinedStatisticError,
    ValidationError,
    bundle_census,
    census_from_counts,
    classify_dyad,
    cohesion_reciprocity,
    pair_lists,
    relational_system,
)
from relalg.bundles import ASYM, CLASSES, DyadPattern, FULL, MIXD, NULL, RECP, TENT, TXCH


def pattern(fwd, bwd):
    return DyadPattern(("i", "j"), frozenset(fwd), frozenset(bwd))


class TestClassify:
    def test_null(self):
        assert classify_dyad(pattern([], []), 3) == NULL

    def test_asym_single_slice_one_way(self):
        assert classify_dyad(pattern(["C"], []), 3) == ASYM
        assert classify_dyad(pattern([], ["F"]), 3) == ASYM

    def test_recp_same_single_slice_both_ways(self):
        assert classify_dyad(pattern(["C"], ["C"]), 3) == RECP

    def test_tent_several_one_way(self):
        assert classify_dyad(pattern(["C", "F"], []), 3) == TENT

    def test_txch_disjoint_both_ways(self):
        assert classify_dyad(pattern(["C"], ["F"]), 3) == TXCH

    def test_mixd_overlapping(self):
        assert classify_dyad(pattern(["C", "F"], ["C"]), 3) == MIXD

    def test_full_every_slice_both_ways(self):
        assert classify_dyad(pattern(["C", "F"], ["C", "F"]), 2) == FULL

    def test_full_takes_precedence_over_mixed(self):
        # with a single slice, a mutual tie is both "all slices" and "same
        # single slice"; full must win only when every slice participates
        assert classify_dyad(pattern(["C"], ["C"]), 1) == FULL
        assert classify_dyad(pattern(["C", "F"], ["C", "F"]), 3) == MIXD


class TestCensus:
    def test_ncc_counts(self, ncc):
        census = bundle_census(ncc)
        assert census.counts == {
            NULL: 4, ASYM: 5, RECP: 0, TENT: 1, TXCH: 0, MIXD: 0, FULL: 0,
        }
        assert census.strong == 0
        assert census.weak == 6
        assert census.total == 6

    def test_matches_decision_list_oracle(self, ncc, netcs):
        for net in (ncc, netcs):
            index = {a: i for i, a in enumerate(net.actors)}
            ties = {
                s.name: {(index[i], index[j]) for i, j in s.ties()}
                for s in net.slices
            }
            want = oracles.census_counts(net.n, ties)
            got = bundle_census(net).counts
            assert got == want

    def test_table_renderer(self, ncc):
        text = bundle_census(ncc).table()
        assert "BUNDLES" in text and "T.ENTR" in text
        assert text.splitlines()[1].startswith("TOTAL")

    def test_from_counts_checks_total(self):
        with pytest.raises(ValidationError):
            census_from_counts(22, null=1)
        census = census_from_counts(
            22, null=206, asym=14, recp=3, tent=1, txch=1, mixd=6, full=0
        )
        assert sum(census.counts.values()) == math.comb(22, 2)


def subsets(items):
    return [
        frozenset(c) for k in range(len(items) + 1) for c in itertools.combinations(items, k)
    ]


class TestPairClasses:
    """The census classifies from slice counts; classify_dyad is the spec."""

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
    def test_every_slice_pattern_of_one_dyad(self, r):
        names = [f"S{s}" for s in range(r)]
        for fwd, bwd in itertools.product(subsets(names), repeat=2):
            net = MultiplexNetwork(
                ["i", "j"],
                [
                    RelationMatrix.from_ties(
                        name, ["i", "j"],
                        [("i", "j")] * (name in fwd) + [("j", "i")] * (name in bwd),
                    )
                    for name in names
                ],
            )
            want = classify_dyad(pattern(fwd, bwd), r)
            counts = bundle_census(net).counts
            assert counts == {c: int(c == want) for c in CLASSES}, (fwd, bwd)
            system = relational_system(net, [want] if want != NULL else ["strong", "weak"])
            assert system.actors == (() if want == NULL else ("i", "j"))

    @pytest.mark.parametrize("r", [255, 300])
    def test_counts_do_not_wrap(self, r):
        # a0-a1 full in every slice both ways, a0-a2 one tie in one slice
        actors = ["a0", "a1", "a2"]
        full = [("a0", "a1"), ("a1", "a0")]
        net = MultiplexNetwork(
            actors,
            [
                RelationMatrix.from_ties(f"S{s}", actors, full + [("a2", "a0")] * (s == 7))
                for s in range(r)
            ],
        )
        tracemalloc.start()
        try:
            counts = bundle_census(net).counts
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == {c: int(c in (NULL, ASYM, FULL)) for c in CLASSES}
        assert peak < 2**20  # no table that grows with r
        system = relational_system(net, ["full"])
        assert system.actors == ("a0", "a1")
        assert all(np.array_equal(s.cells, [[0, 1], [1, 0]]) for s in system.slices)


class TestStatistics:
    def test_reference_counts_reproduce_reference_statistics(self):
        census = census_from_counts(
            22, null=206, asym=14, recp=3, tent=1, txch=1, mixd=6, full=0
        )
        stats = cohesion_reciprocity(census)
        assert stats.strong == 10
        assert stats.weak == 15
        assert stats.cohesion == pytest.approx(0.0364078, abs=1e-6)
        assert stats.reciprocity == pytest.approx(3.60069, abs=1e-4)

    def test_zero_strong_is_undefined(self, ncc):
        with pytest.raises(UndefinedStatisticError, match="strong bond"):
            cohesion_reciprocity(bundle_census(ncc))

    def test_zero_weak_is_undefined(self):
        census = census_from_counts(2, null=0, recp=1)
        with pytest.raises(UndefinedStatisticError, match="weak bond"):
            cohesion_reciprocity(census)

    def test_zero_null_is_undefined(self):
        census = census_from_counts(3, recp=1, asym=2)
        with pytest.raises(UndefinedStatisticError, match="null dyad"):
            cohesion_reciprocity(census)


class TestRelationalSystem:
    def test_tent_system_of_ncc(self, ncc):
        system = relational_system(ncc, ["tent"])
        assert system.actors == ("357", "398")
        assert system.slice("C").ties() == [("398", "357")]
        assert system.slice("F").ties() == [("398", "357")]
        assert system.slice("K").ties() == []

    def test_pair_list_format(self, ncc):
        system = relational_system(ncc, ["tent"])
        assert pair_lists(system) == {
            "C": ["398, 357"], "F": ["398, 357"], "K": [],
        }

    def test_weak_expansion(self, ncc):
        system = relational_system(ncc, ["weak"])
        # asym + tent dyads cover every tied actor of ncc
        assert set(system.actors) == set(ncc.actors)

    def test_strong_selection_may_be_empty(self, ncc):
        system = relational_system(ncc, ["strong"])
        assert system.actors == ()
        assert pair_lists(system) == {"C": [], "F": [], "K": []}

    def test_unknown_bond(self, ncc):
        with pytest.raises(ValidationError):
            relational_system(ncc, ["frenemies"])

    def test_empty_selection_rejected(self, ncc):
        with pytest.raises(ValidationError):
            relational_system(ncc, [])

    def test_null_is_not_selectable(self, ncc):
        with pytest.raises(ValidationError):
            relational_system(ncc, ["null"])

    def test_actor_order_preserved(self):
        actors = ["d", "a", "c"]
        net = MultiplexNetwork(
            actors,
            [RelationMatrix.from_ties("C", actors, [("c", "d"), ("d", "c")])],
        )
        system = relational_system(net, ["strong"])
        assert system.actors == ("d", "c")
