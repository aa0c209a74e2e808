import numpy as np
import pytest

from relalg import (
    ConceptOrder,
    DimensionError,
    FormalContext,
    MultiplexNetwork,
    Poset,
    RelationMatrix,
    SignedMatrix,
    ValidationError,
    build_relation_box,
    components,
    compose,
    concepts,
    generate_strings,
    network_from_dict,
    network_to_dict,
    permutation_order,
    permute,
    remove_isolates,
    select_subnetwork,
    transpose,
)
from relalg.netcore import bool_product


def rel(name, actors, ties):
    return RelationMatrix.from_ties(name, actors, ties)


class TestRelationMatrix:
    def test_from_ties(self):
        m = rel("C", ["a", "b", "c"], [("a", "b"), ("c", "a")])
        assert m.ties() == [("a", "b"), ("c", "a")]
        assert m.n == 3

    def test_unknown_actor_rejected(self):
        with pytest.raises(ValidationError):
            rel("C", ["a", "b"], [("a", "z")])

    def test_duplicate_actor_labels_rejected(self):
        with pytest.raises(ValidationError):
            rel("C", ["a", "a"], [])

    def test_cells_are_frozen(self):
        m = rel("C", ["a", "b"], [("a", "b")])
        with pytest.raises(ValueError):
            m.cells[0, 0] = True

    def test_equality_is_structural(self):
        a = rel("C", ["a", "b"], [("a", "b")])
        b = rel("D", ["a", "b"], [("a", "b")])
        c = rel("C", ["a", "b"], [("b", "a")])
        assert a == b          # the name is presentation, not identity
        assert a != c
        assert hash(a) == hash(b)


class TestCompose:
    def test_left_to_right_reading(self):
        actors = ["1", "2", "3"]
        c = rel("C", actors, [("1", "2")])
        f = rel("F", actors, [("2", "3")])
        cf = compose(c, f)
        assert cf.name == "CF"
        assert cf.ties() == [("1", "3")]
        assert compose(f, c).ties() == []

    @pytest.mark.parametrize("n", [31, 32, 256, 512])
    def test_witness_count_does_not_wrap(self, n):
        # cell (0, 0) of AB has n witnesses: 256 and 512 wrap a uint8 count,
        # 31 and 32 sit on either side of the bitset product's threshold
        actors = [f"a{i}" for i in range(n)]
        a = np.zeros((n, n), dtype=bool)
        a[0] = True
        b = np.zeros((n, n), dtype=bool)
        b[:, 0] = True
        assert bool_product(a, b)[0, 0]
        net = MultiplexNetwork(
            actors, [RelationMatrix("A", actors, a), RelationMatrix("B", actors, b)]
        )
        assert compose(*net.slices).cells[0, 0]
        strings = generate_strings(net)
        assert strings.images[strings.st.index("AB")][0, 0]
        box = build_relation_box(net, k=2)
        assert box.slices[box.word_labels.index("AB")][0, 0]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            compose(rel("C", ["a"], []), rel("F", ["a", "b"], []))

    def test_transpose(self):
        m = rel("C", ["a", "b"], [("a", "b")])
        t = transpose(m)
        assert t.name == "tC"
        assert t.ties() == [("b", "a")]
        assert transpose(t) == m


REPEATED_LABELS = {
    "poset": lambda: Poset(["a", "a"], np.eye(2, dtype=bool)),
    "signed-matrix": lambda: SignedMatrix(["x", "x"], [["o", "p"], ["n", "o"]]),
    "concept-order": lambda: ConceptOrder(
        concepts(FormalContext(["g", "h"], ["m"], [[1], [0]])), labels=["c", "c"]
    ),
}


@pytest.mark.parametrize("case", sorted(REPEATED_LABELS))
def test_repeated_labels_rejected(case):
    with pytest.raises(ValidationError, match="labels must be unique"):
        REPEATED_LABELS[case]()


RAGGED_ROWS = {
    "relation-matrix": (
        lambda: RelationMatrix("R", ["a", "b"], [[1, 0], [0]]),
        DimensionError, r"relation 'R': cells are ragged, expected \(2, 2\)",
    ),
    "signed-matrix": (
        lambda: SignedMatrix(["a", "b"], [["p", "o"], ["o"]]),
        ValidationError, "signed matrix must be square over the actors",
    ),
    "formal-context": (
        lambda: FormalContext(["g", "h"], ["m", "n"], [[1, 0], [0]]),
        ValidationError, "incidence shape must be objects x attributes",
    ),
    "poset": (
        lambda: Poset(["a", "b"], [[1, 0], [1]]),
        ValidationError, "order matrix must be square over the labels",
    ),
}


@pytest.mark.parametrize("case", sorted(RAGGED_ROWS))
def test_ragged_rows_raise_the_shape_error(case):
    build, error, message = RAGGED_ROWS[case]
    with pytest.raises(error, match=f"^{message}$") as err:
        build()
    assert type(err.value) is error


class TestNetwork:
    def test_requires_a_slice(self):
        with pytest.raises(ValidationError):
            MultiplexNetwork(["a"], [])

    def test_slice_names_unique(self):
        a = rel("C", ["a"], [])
        with pytest.raises(ValidationError):
            MultiplexNetwork(["a"], [a, a])

    def test_slices_share_actors(self):
        with pytest.raises(ValidationError):
            MultiplexNetwork(["a"], [rel("C", ["a"], []), rel("F", ["b"], [])])

    def test_slice_lookup(self, ncc):
        assert ncc.slice("C").ties() == [("398", "357")]
        with pytest.raises(ValidationError):
            ncc.slice("missing")

    def test_dict_round_trip(self, ncc):
        back = network_from_dict(network_to_dict(ncc))
        assert back.actors == ncc.actors
        assert all(a == b for a, b in zip(back.slices, ncc.slices))

    def test_from_dict_validates(self):
        with pytest.raises(ValidationError):
            network_from_dict({"actors": ["a"]})
        ties = {"name": "C", "ties": [["a", "b"]]}
        for actors in (5, "ab", ["a", 1]):
            with pytest.raises(ValidationError):
                network_from_dict({"actors": actors, "relations": [ties]})
        for bad in (5, [["a"]], [["a", "b", "a"]], ["ab"], [[["a"], "b"]]):
            with pytest.raises(ValidationError):
                network_from_dict(
                    {"actors": ["a", "b"], "relations": [{"name": "C", "ties": bad}]}
                )


class TestComponents:
    def test_single_component_no_isolates(self, ncc):
        comps, isolates = components(ncc)
        assert comps == [list(ncc.actors)]
        assert isolates == []

    def test_isolate_detection(self):
        actors = ["a", "b", "c", "d"]
        net = MultiplexNetwork(
            actors, [rel("C", actors, [("a", "b")]), rel("F", actors, [("c", "a")])]
        )
        comps, isolates = components(net)
        assert comps == [["a", "b", "c"]]
        assert isolates == ["d"]
        trimmed = remove_isolates(net)
        assert trimmed.actors == ("a", "b", "c")

    def test_lone_tie_makes_a_component(self):
        actors = ["x", "y", "z"]
        net = MultiplexNetwork(actors, [rel("C", actors, [("x", "y")])])
        comps, isolates = components(net)
        assert comps == [["x", "y"]]
        assert isolates == ["z"]


class TestSelectPermute:
    def test_select_subnetwork(self, ncc):
        sub = select_subnetwork(ncc, ["357", "398"])
        assert sub.actors == ("357", "398")
        assert sub.slice("C").ties() == [("398", "357")]
        assert sub.slice("F").ties() == [("398", "357")]

    def test_select_unknown(self, ncc):
        with pytest.raises(ValidationError):
            select_subnetwork(ncc, ["357", "999"])

    def test_permutation_order_stable_within_class(self):
        order = permutation_order(["a", "b", "c", "d"], {"a": 2, "b": 1, "c": 2, "d": 1})
        assert order == [1, 3, 0, 2]

    def test_permutation_missing_actor(self):
        with pytest.raises(ValidationError):
            permutation_order(["a", "b"], {"a": 1})

    def test_permute_matrix(self):
        m = rel("C", ["a", "b", "c"], [("a", "c")])
        p = permute(m, {"a": 2, "b": 1, "c": 1})
        assert p.actors == ("b", "c", "a")
        assert p.ties() == [("a", "c")]
        assert np.array_equal(
            p.cells, np.array([[0, 0, 0], [0, 0, 0], [0, 1, 0]], dtype=bool)
        )
