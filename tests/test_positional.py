import functools
import itertools

import numpy as np
import pytest

import oracles
from conftest import golden
from relalg import (
    ClosureTooLargeError,
    MultiplexNetwork,
    RelationMatrix,
    RelationBox,
    ValidationError,
    build_relation_box,
    compose,
    cumulated_hierarchy,
    person_hierarchy,
    reduce_network,
)


class TestRelationBox:
    def test_depth_counts_every_word(self, ncc):
        assert build_relation_box(ncc, k=1).depth == 3
        assert build_relation_box(ncc, k=2).depth == 12
        assert build_relation_box(ncc, k=3).depth == 39

    def test_duplicate_images_are_kept(self, ncc):
        box = build_relation_box(ncc, k=3)
        keys = {np.asarray(s).tobytes() for s in box.slices}
        assert len(keys) < box.depth

    def test_label_order(self, ncc):
        box = build_relation_box(ncc, k=2)
        assert list(box.word_labels) == [
            "C", "F", "K",
            "CC", "CF", "CK", "FC", "FF", "FK", "KC", "KF", "KK",
        ]

    def test_transposes_widen_the_alphabet(self, ncc):
        box = build_relation_box(ncc, k=1, include_transposes=True)
        assert list(box.word_labels) == ["C", "F", "K", "tC", "tF", "tK"]

    def test_slice_array_shape(self, ncc):
        box = build_relation_box(ncc, k=2)
        assert box.slice_array().shape == (5, 5, 12)

    def test_k_validation(self, ncc):
        with pytest.raises(ValidationError):
            build_relation_box(ncc, k=0)

    def test_images_match_word_by_word_composition(self, netcs):
        box = build_relation_box(netcs, k=3)
        words = [
            functools.reduce(compose, w)
            for k in range(1, 4)
            for w in itertools.product(netcs.slices, repeat=k)
        ]
        assert list(box.word_labels) == [w.name for w in words]
        for img, w in zip(box.slices, words):
            assert np.array_equal(img, w.cells)

    def test_word_count_cap_from_environment(self, ncc, monkeypatch):
        monkeypatch.setenv("RELALG_MAX_CLOSURE", "11")
        with pytest.raises(ClosureTooLargeError):
            build_relation_box(ncc, k=2)


def _oracle_box(box):
    return [np.asarray(s, dtype=bool).tolist() for s in box.slices]


class TestPersonHierarchy:
    def test_matches_profile_oracle(self, ncc):
        box = build_relation_box(ncc, k=3)
        cells = _oracle_box(box)
        for e, ego in enumerate(box.actors):
            got = person_hierarchy(box, ego)
            want = oracles.person_order(cells, box.n, box.depth, e)
            want |= {(i, i) for i in range(box.n)}
            have = {
                (i, j)
                for i in range(box.n)
                for j in range(box.n)
                if got.matrix[i, j]
            }
            assert have == oracles.transitive_closure(box.n, want)

    def test_unknown_ego(self, ncc):
        with pytest.raises(ValidationError):
            person_hierarchy(build_relation_box(ncc, k=1), "nobody")

    def test_empty_box_gives_the_identity_order(self):
        po = person_hierarchy(RelationBox(["a", "b"], [], [], 1), "a")
        assert (po.matrix == np.eye(2, dtype=bool)).all()


class TestCumulatedHierarchy:
    def test_ncc_golden(self, ncc):
        po = cumulated_hierarchy(build_relation_box(ncc, k=3))
        want = golden("ncc_cph.json")
        assert list(po.labels) == want["actors"]
        assert [[int(x) for x in row] for row in po.matrix] == want["matrix"]

    def test_matches_union_oracle(self, ncc):
        box = build_relation_box(ncc, k=2)
        got = cumulated_hierarchy(box)
        want = oracles.cumulated_order(_oracle_box(box), box.n, box.depth)
        have = {
            (i, j) for i in range(box.n) for j in range(box.n) if got.matrix[i, j]
        }
        assert have == want

    def test_empty_box_gives_the_identity_order(self):
        box = RelationBox(["a", "b", "c"], [], [], 1)
        assert box.slice_array().shape == (3, 3, 0)
        assert (cumulated_hierarchy(box).matrix == np.eye(3, dtype=bool)).all()

    def test_reflexive_and_transitive(self, netcs):
        po = cumulated_hierarchy(build_relation_box(netcs, k=2))
        assert po.is_reflexive()
        assert po.is_transitive()


class TestReduceNetwork:
    def test_class_order_follows_first_appearance(self, ncc):
        system = reduce_network(
            ncc, {"339": 2, "354": 3, "357": 1, "395": 3, "398": 1}
        )
        assert system.class_labels == ("2", "3", "1")
        assert system.source_classes["339"] == "2"

    def test_blocks_are_existential(self):
        actors = ["a", "b", "c", "d"]
        net = MultiplexNetwork(
            actors,
            [RelationMatrix.from_ties("C", actors, [("a", "c"), ("d", "b")])],
        )
        system = reduce_network(net, {"a": "one", "b": "one", "c": "two", "d": "two"})
        cells = system.images[0].cells
        # one -> two from (a, c); two -> one from (d, b); nothing within
        assert cells.tolist() == [[False, True], [True, False]]

    def test_as_network(self, ncc):
        system = reduce_network(
            ncc, {"339": 1, "354": 2, "357": 3, "395": 2, "398": 3}
        )
        net = system.as_network()
        assert net.actors == ("1", "2", "3")
        assert net.slice_names == ("C", "F", "K")

    def test_missing_actor(self, ncc):
        with pytest.raises(ValidationError):
            reduce_network(ncc, {"339": 1})
