import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import golden
from relalg import (
    ClosureTooLargeError,
    MultiplexNetwork,
    Poset,
    RelationMatrix,
    ValidationError,
    build_semigroup,
    compose,
    equations,
    generate_strings,
    semigroup_from_dict,
    string_partial_order,
)
from relalg import semigroup
from relalg.semigroup import StringSet


class TestGenerateStrings:
    def test_ncc_closure(self, ncc):
        st = generate_strings(ncc)
        want = golden("ncc_semigroup.json")
        assert st.order == 17
        assert list(st.st) == want["st"]

    def test_netcs_closure(self, netcs):
        st = generate_strings(netcs)
        assert list(st.st) == golden("netcs_semigroup.json")["st"]

    def test_representative_is_first_in_length_lex_order(self, ncc):
        # exhaustive to length 4: no word earlier in (length, alphabet
        # position) order may share a representative's image
        st = generate_strings(ncc)
        by_key = {img.tobytes(): i for i, img in enumerate(st.images)}
        alphabet = {name: k for k, name in enumerate(st.alphabet)}
        mats = {s.name: s for s in ncc.slices}

        def rank(word):
            return (len(word), tuple(alphabet[w] for w in word))

        for length in range(1, 5):
            for word in itertools.product(st.alphabet, repeat=length):
                img = mats[word[0]]
                for w in word[1:]:
                    img = compose(img, mats[w])
                i = by_key.get(np.asarray(img.cells, dtype=bool).tobytes())
                if i is not None:
                    assert rank(st.words[i]) <= rank(word)

    def test_transposed_generators(self, ncc):
        st = generate_strings(ncc, include_transposes=True)
        assert st.alphabet == ("C", "F", "K", "tC", "tF", "tK")
        assert "tC" in st.st

    def test_slice_named_like_a_transpose_rejected(self):
        actors = ["x", "y"]
        net = MultiplexNetwork(actors, [
            RelationMatrix.from_ties("A", actors, [("x", "y")]),
            RelationMatrix.from_ties("tA", actors, [("x", "x")]),
        ])
        assert generate_strings(net).st == ("A", "tA", "AA")
        clash = "slice 'tA' is named like the transpose of slice 'A'"
        with pytest.raises(ValidationError, match=clash):
            generate_strings(net, include_transposes=True)
        with pytest.raises(ValidationError, match=clash):
            equations(net, 2, include_transposes=True)

    def test_cap_raises(self, ncc):
        with pytest.raises(ClosureTooLargeError) as err:
            generate_strings(ncc, max_elements=5)
        assert err.value.cap == 5

    @pytest.mark.parametrize("transposes", [False, True])
    @pytest.mark.parametrize("fixture", ["ncc", "netcs"])
    def test_every_cap_below_the_order_raises_at_cap_plus_one(
        self, fixture, transposes, request
    ):
        net = request.getfixturevalue(fixture)
        order = generate_strings(net, include_transposes=transposes).order
        for cap in range(1, order):
            with pytest.raises(ClosureTooLargeError) as err:
                generate_strings(net, include_transposes=transposes, max_elements=cap)
            assert (err.value.count, err.value.cap) == (cap + 1, cap)

    def test_cap_from_environment(self, ncc, monkeypatch):
        monkeypatch.setenv("RELALG_MAX_CLOSURE", "4")
        with pytest.raises(ClosureTooLargeError):
            generate_strings(ncc)
        monkeypatch.setenv("RELALG_MAX_CLOSURE", "100")
        assert generate_strings(ncc).order == 17

    @pytest.mark.parametrize("cap", [-1, 2.5, "abc", "1e9"])
    def test_malformed_cap_rejected(self, ncc, cap):
        with pytest.raises(ValidationError, match="must be a whole number >= 0"):
            generate_strings(ncc, max_elements=cap)

    @pytest.mark.parametrize("text", ["abc", "1e9", "-1", "2.5"])
    def test_malformed_cap_in_the_environment_rejected(self, ncc, monkeypatch, text):
        monkeypatch.setenv("RELALG_MAX_CLOSURE", text)
        with pytest.raises(ValidationError, match=f"RELALG_MAX_CLOSURE must be .*{text!r}"):
            generate_strings(ncc)

    def test_cap_of_zero_is_a_cap(self, ncc):
        with pytest.raises(ClosureTooLargeError):
            generate_strings(ncc, max_elements=0)

    def test_generator_elements(self, netcs):
        st = generate_strings(netcs)
        assert st.generator_elements == (("C", 0), ("F", 1), ("K", 2))

    def test_network_over_no_actors(self):
        empty = np.zeros((0, 0), dtype=bool)
        net = MultiplexNetwork([], [RelationMatrix(c, [], empty) for c in "AB"])
        st = generate_strings(net)
        assert st.st == ("A",) and st.right.tolist() == [[0, 0]]
        assert build_semigroup(st).table == [[1]]

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0), (0, 2, 2)])
    def test_closure_of_empty_matrices(self, shape):
        assert semigroup.transitive_closure(np.zeros(shape, dtype=bool)).shape == shape

    def test_duplicate_generator_images_collapse(self):
        actors = ["a", "b"]
        c = RelationMatrix.from_ties("C", actors, [("a", "b")])
        d = RelationMatrix.from_ties("D", actors, [("a", "b")])
        st = generate_strings(MultiplexNetwork(actors, [c, d]))
        assert st.generator_elements[0] == ("C", 0)
        assert st.generator_elements[1] == ("D", 0)
        assert "D" not in st.st


class TestBuildSemigroup:
    def test_ncc_numerical_table(self, ncc):
        sg = build_semigroup(generate_strings(ncc), "numerical")
        assert sg.table == golden("ncc_semigroup.json")["table"]

    def test_netcs_symbolic_table(self, netcs):
        sg = build_semigroup(generate_strings(netcs), "symbolic")
        assert sg.table == golden("netcs_semigroup.json")["table"]

    def test_formats_share_products(self, netcs):
        st = generate_strings(netcs)
        num = build_semigroup(st, "numerical")
        sym = build_semigroup(st, "symbolic")
        for i in range(num.order):
            for j in range(num.order):
                assert num.product(i, j) == sym.product(i, j)

    def test_unknown_format(self, netcs):
        with pytest.raises(ValidationError):
            build_semigroup(generate_strings(netcs), "roman")

    def test_unclosed_input_rejected(self, ncc):
        # a right Cayley graph that leaves every element but the letters unreached
        st = generate_strings(ncc)
        unreached = StringSet(
            st.actors, st.alphabet, st.words, st.images, st.generator_elements,
            np.zeros_like(st.right),
        )
        with pytest.raises(ValidationError, match="not a product of letters"):
            build_semigroup(unreached)

    def test_associativity_of_the_closure(self, netcs):
        sg = build_semigroup(generate_strings(netcs))
        for x in range(sg.order):
            for y in range(sg.order):
                for z in range(sg.order):
                    assert sg.product(sg.product(x, y), z) == sg.product(
                        x, sg.product(y, z)
                    )

    def test_json_round_trip(self, netcs):
        sg = build_semigroup(generate_strings(netcs), "symbolic")
        back = semigroup_from_dict(sg.to_dict())
        assert back.st == sg.st
        assert back.table == sg.table
        assert back.generator_elements() == sg.generator_elements()

    def test_from_dict_validation(self):
        with pytest.raises(ValidationError):
            semigroup_from_dict({"st": ["a"]})
        with pytest.raises(ValidationError):
            semigroup_from_dict({"st": ["a", "b"], "table": [[1, 2]]})
        with pytest.raises(ValidationError):
            semigroup_from_dict({"st": ["a"], "table": [[2]]})
        with pytest.raises(ValidationError):
            semigroup_from_dict({"st": ["a"], "table": [["b"]]})
        for cell in (None, 1.0, True, [1]):
            with pytest.raises(ValidationError):
                semigroup_from_dict({"st": ["a"], "table": [[cell]]})
        with pytest.raises(ValidationError):
            semigroup_from_dict({"st": "ab", "table": [[1, 2], [2, 1]]})
        for gens in ([["a", 0]], [["a", 3]], [["a"]], ["a"], 1):
            with pytest.raises(ValidationError):
                semigroup_from_dict({"st": ["a", "b"], "table": [[1, 2], [2, 1]], "generators": gens})

    @pytest.mark.parametrize("n", range(10))
    def test_transpose_in_place_across_block_edges(self, n):
        a = np.arange(n * n).reshape(n, n)
        for block in (1, 2, 3, 4, 256):
            want = a.T.copy()
            assert np.array_equal(semigroup._transpose(a, block), want)
            a = want

    def test_one_table_at_a_time(self):
        # order 897: its int64 table is 6.1 MiB
        rng = np.random.default_rng(5)
        actors = [f"a{i}" for i in range(5)]
        st = generate_strings(MultiplexNetwork(
            actors, [RelationMatrix(f"R{k}", actors, rng.random((5, 5)) < .25) for k in range(3)]
        ))
        tracemalloc.start()
        try:
            sg = build_semigroup(st)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = sg._idx
        assert table.shape == (897, 897) and table.flags["C_CONTIGUOUS"]
        assert peak < 1.25 * table.nbytes
        for a, (_, g) in enumerate(st.generator_elements):   # x times letter a
            assert np.array_equal(table[:, g], st.right[:, a])


class TestEquations:
    def test_ncc_empty_image_class(self, ncc):
        classes = equations(ncc, 3)
        want = golden("ncc_equations_K.json")["K"]
        assert set(classes["K"]) == set(want)
        assert len(classes["K"]) == 30

    def test_netcs_all_classes(self, netcs):
        classes = equations(netcs, 3)
        want = golden("netcs_equations.json")
        assert list(classes) == list(want)
        for label, members in want.items():
            assert set(classes[label]) == set(members)

    def test_singletons_omitted(self, ncc):
        classes = equations(ncc, 2)
        for members in classes.values():
            assert len(members) > 1

    def test_keys_are_representatives(self, netcs):
        st = generate_strings(netcs)
        for label in equations(netcs, 3):
            assert label in st.st

    def test_k_validation(self, ncc):
        with pytest.raises(ValidationError):
            equations(ncc, 0)

    def test_matches_word_by_word_composition(self, netcs):
        groups = {}
        for k in range(1, 5):
            for word in itertools.product(netcs.slices, repeat=k):
                rel = functools.reduce(compose, word)
                groups.setdefault(rel.cells.tobytes(), []).append(rel.name)
        want = {members[0]: members for members in groups.values() if len(members) > 1}
        assert equations(netcs, 4) == want

    def test_word_count_cap_from_environment(self, ncc, monkeypatch):
        # three letters give 3 + 9 words up to length 2
        monkeypatch.setenv("RELALG_MAX_CLOSURE", "11")
        with pytest.raises(ClosureTooLargeError) as err:
            equations(ncc, 2)
        assert err.value.cap == 11
        monkeypatch.setenv("RELALG_MAX_CLOSURE", "12")
        assert equations(ncc, 2)

    def test_words_take_no_products(self, ncc, monkeypatch):
        # only the closure multiplies, one product per level below 6
        calls = []
        product = semigroup.bool_product

        def counted(a, b):
            calls.append(1)
            return product(a, b)

        monkeypatch.setattr(semigroup, "bool_product", counted)
        equations(ncc, 6)
        assert 0 < len(calls) <= 5


class TestPartialOrder:
    def test_ncc_matrix(self, ncc):
        po = string_partial_order(generate_strings(ncc))
        want = golden("ncc_partial_order.json")
        assert list(po.labels) == want["labels"]
        assert [[int(x) for x in row] for row in po.matrix] == want["matrix"]

    def test_axioms_hold(self, ncc):
        po = string_partial_order(generate_strings(ncc))
        assert po.check() is po
        assert po.is_reflexive() and po.is_transitive() and po.is_antisymmetric()

    def test_leq_is_image_containment(self, ncc):
        st = generate_strings(ncc)
        po = string_partial_order(st)
        for i, a in enumerate(st.st):
            for j, b in enumerate(st.st):
                want = not (st.images[i] & ~st.images[j]).any()
                assert po.leq(a, b) == want


class TestPoset:
    def test_antisymmetry_violations(self):
        po = Poset(["a", "b"], [[1, 1], [1, 1]])
        assert po.antisymmetry_violations() == [("a", "b")]
        assert not po.is_antisymmetric()
        with pytest.raises(ValidationError):
            po.check()

    def test_up_and_down_sets(self):
        po = Poset(["a", "b", "c"], [[1, 1, 1], [0, 1, 1], [0, 0, 1]])
        assert po.upset("b") == [1, 2]
        assert po.downset("b") == [0, 1]
        with pytest.raises(ValidationError):
            po.upset("z")

    def test_permuted(self):
        po = Poset(["a", "b", "c"], [[1, 1, 1], [0, 1, 1], [0, 0, 1]])
        q = po.permuted({"a": 2, "b": 1, "c": 1})
        assert q.labels == ("b", "c", "a")
        assert q.leq("a", "b") and not q.leq("b", "a")

    def test_dict_round_trip(self):
        po = Poset(["a", "b"], [[1, 0], [1, 1]])
        back = Poset.from_dict(po.to_dict())
        assert back.labels == po.labels
        assert (back.matrix == po.matrix).all()

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            Poset(["a", "b"], [[1, 0, 0], [0, 1, 0]])
