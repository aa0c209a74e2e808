"""Randomized checks of the algebraic laws, pinned by derandomization."""
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import oracles
from conftest import canonical
from relalg import (
    BALANCE,
    CLUSTER,
    ClosureTooLargeError,
    FormalContext,
    MultiplexNetwork,
    Poset,
    RelationMatrix,
    SignedMatrix,
    ValidationError,
    balance_closure,
    build_relation_box,
    build_semigroup,
    compose,
    concept_order,
    concepts,
    cumulated_hierarchy,
    decompose,
    derive,
    equations,
    extent,
    factorize,
    filter_ideal,
    find_congruences,
    generate_strings,
    is_congruence,
    person_hierarchy,
    semigroup_from_dict,
    semiring_powers,
    string_partial_order,
    symmetric_closure,
    transitive_closure,
)
from relalg.bundles import bundle_census, relational_system
from relalg.netcore import (
    _BLOCK_WORDS, bool_product, classes, connected_components, containment,
)
from relalg.signed import VALENCES, _product
from relalg.decomp import Congruence, _translations
from relalg.dot import hasse_dot

COMMON = dict(derandomize=True, deadline=None)


def actor_names(n):
    return [f"a{i}" for i in range(n)]


@st.composite
def relation(draw, n, name="R"):
    cells = draw(
        st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n)
    )
    actors = actor_names(n)
    ties = [(actors[i], actors[j]) for i in range(n) for j in range(n) if cells[i][j]]
    return RelationMatrix.from_ties(name, actors, ties)


@st.composite
def network(draw, max_n=3, max_slices=2, min_slices=1):
    n = draw(st.integers(2, max_n))
    r = draw(st.integers(min_slices, max_slices))
    slices = [draw(relation(n, name=chr(ord("A") + s))) for s in range(r)]
    return MultiplexNetwork(actor_names(n), slices)


@st.composite
def random_poset(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    m = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = draw(st.booleans())
    return Poset(actor_names(n), transitive_closure(m))


@st.composite
def signed_matrix(draw, max_n=4, letters="pona", loops=False):
    n = draw(st.integers(2, max_n))
    cells = [
        [draw(st.sampled_from(letters)) if loops or i != j else "o" for j in range(n)]
        for i in range(n)
    ]
    return SignedMatrix(actor_names(n), cells)


def pairs_of(m):
    return {(i, j) for i in range(m.shape[0]) for j in range(m.shape[1]) if m[i, j]}


class TestComposition:
    @settings(**COMMON)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(relation(n), relation(n), relation(n))))
    def test_associative(self, triple):
        a, b, c = triple
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert (left.cells == right.cells).all()

    @settings(**COMMON)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), relation(n), relation(n))))
    def test_matches_pair_chasing(self, args):
        n, a, b = args
        got = pairs_of(compose(a, b).cells)
        assert got == oracles.compose_sets(n, pairs_of(a.cells), pairs_of(b.cells))


@st.composite
def edge_list(draw, max_n=12):
    """n elements and up to 3n edges among them, self-loops and repeats allowed."""
    n = draw(st.integers(0, max_n))
    ends = st.integers(0, max(n - 1, 0))
    return n, draw(st.lists(st.tuples(ends, ends), max_size=3 * n))


class TestPartitionKernel:
    @settings(max_examples=150, **COMMON)
    @given(edge_list())
    @example((0, []))
    @example((5, []))
    @example((4, [(2, 2), (0, 0)]))
    @example((6, [(4, 1), (1, 4), (4, 1), (5, 3), (3, 5)]))
    @example((12, [(i, i - 1) for i in range(11, 0, -1)]))   # one component, longest first
    @example((12, [(11 - i, i) for i in range(6)] + [(i, i + 1) for i in range(5)]))
    def test_matches_union_find(self, graph):
        n, edges = graph
        u, v = np.array(edges, dtype=int).reshape(len(edges), 2).T
        assert classes(n, u, v).tolist() == oracles.union_find(n, edges)
        adj = np.zeros((n, n), dtype=bool)
        adj[u, v] = True
        got = connected_components(adj)
        assert [c.tolist() for c in got] == oracles.weak_components(n, edges)


@st.composite
def bool_operands(draw):
    """Operands whose every dimension is drawn around the bitset threshold
    (32) and the 64-bit word, with densities from all-false to all-true."""
    m, n = (draw(st.sampled_from([0, 1, 31, 32, 33, 70])) for _ in range(2))
    k = draw(st.sampled_from([0, 1, 31, 32, 33, 63, 64, 65, 128]))
    density = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random((m, k)) < density, rng.random((k, n)) < density


class TestBoolProduct:
    @settings(max_examples=200, **COMMON)
    @given(bool_operands())
    def test_matches_witness_count(self, operands):
        a, b = operands
        got = bool_product(a, b)
        assert got.dtype == bool
        assert np.array_equal(got, oracles.witness_product(a, b))

    @settings(**COMMON)
    @given(bool_operands())
    def test_non_contiguous_operands(self, operands):
        x, _ = operands
        # containment passes ~x.T, a Fortran-order view
        assert np.array_equal(bool_product(x, ~x.T), oracles.witness_product(x, ~x.T))
        assert np.array_equal(containment(x), ~oracles.witness_product(x, ~x.T))
        y = x[::-1, ::2]
        assert np.array_equal(bool_product(y, y.T), oracles.witness_product(y, y.T))

    def test_output_taller_than_one_block(self):
        n = 40
        m = 2 * (_BLOCK_WORDS // n) + 3
        rng = np.random.default_rng(0)
        a, b = rng.random((m, 65)) < 0.03, rng.random((65, n)) < 0.03
        assert np.array_equal(bool_product(a, b), oracles.witness_product(a, b))

    @settings(max_examples=150, **COMMON)
    @given(bool_operands(), st.sampled_from([0, 1, 3]))
    def test_stacks_match_matrix_by_matrix(self, operands, batch):
        a, b = operands
        sa = np.stack([a, ~a, np.roll(a, 1, axis=0)])[:batch]
        sb = np.stack([b, b, ~b])[:batch]
        got = bool_product(sa, sb)
        assert got.dtype == bool and got.shape == (batch, len(a), b.shape[1])
        for x, y, z in zip(sa, sb, got):
            assert np.array_equal(z, oracles.witness_product(x, y))
        assert np.array_equal(bool_product(a, b), bool_product(a[None], b[None])[0])

    def test_stack_of_matrices_larger_than_one_block(self):
        # each 300 x 300 matrix needs several row blocks; 40 x 40 ones share a block
        rng = np.random.default_rng(1)
        for s, n in ((2, 300), (2 * (_BLOCK_WORDS // 1600) + 1, 40)):
            a, b = rng.random((s, n, 70)) < 0.1, rng.random((s, 70, n)) < 0.1
            got = bool_product(a, b)
            for x, y, z in zip(a, b, got):
                assert np.array_equal(z, oracles.witness_product(x, y))

    @pytest.mark.parametrize("p", [0.9, 0.5, 0.03])
    def test_dense_operands_stop_early_and_exactly(self, p):
        # 200 inner bits make four words, so a dense block can stop before
        # its last ones; row 1 lies off the sampled rows, and only its
        # third word holds a bit
        rng = np.random.default_rng(2)
        for s, m, n in ((1, 300, 300), (5, 40, 40)):
            a, b = rng.random((s, m, 200)) < p, rng.random((s, 200, n)) < p
            a[:, 1] = False
            a[:, 1, 150] = True
            assert np.array_equal(bool_product(a, b), a @ b)
            assert np.array_equal(bool_product(a[0], b[0]), a[0] @ b[0])

    def test_stacks_must_pair_up(self):
        a = np.zeros((2, 3, 3), dtype=bool)
        for b in (np.zeros((3, 3, 3), dtype=bool), np.zeros((3, 3), dtype=bool)):
            with pytest.raises(ValueError):
                bool_product(a, b)


class TestStackClosure:
    """The closure of a stack is the closure of each of its matrices."""

    @settings(max_examples=60, **COMMON)
    @given(
        st.sampled_from([1, 5, 31, 32, 33, 40]), st.integers(0, 4),
        st.sampled_from([0.0, 0.01, 0.03, 0.1]), st.integers(0, 2**32 - 1),
    )
    def test_matches_pair_closure_slice_by_slice(self, n, batch, density, seed):
        stack = np.random.default_rng(seed).random((batch, n, n)) < density
        got = transitive_closure(stack)
        assert got.shape == stack.shape
        for m, q in zip(stack, got):
            want = oracles.transitive_closure(n, pairs_of(m))
            assert pairs_of(q) == want
            assert np.array_equal(transitive_closure(m), q)


class TestCensus:
    @settings(**COMMON)
    @given(network(max_n=12, max_slices=6))
    def test_counts_agree_with_dyad_walk(self, net):
        got = bundle_census(net).counts
        ties = {s.name: pairs_of(s.cells) for s in net.slices}
        assert got == oracles.census_counts(net.n, ties)

    @settings(**COMMON)
    @given(network(max_n=10, max_slices=3))
    def test_every_dyad_lands_in_one_class(self, net):
        total = sum(bundle_census(net).counts.values())
        assert total == net.n * (net.n - 1) // 2


BOND_SELECTORS = ("strong", "weak", "asym", "recp", "tent", "txch", "mixd", "full")
EXPANDED = {"strong": {"recp", "txch", "mixd", "full"}, "weak": {"asym", "tent"}}


class TestRelationalSystem:
    """The class-array bond system matches the per-pair walk it replaced."""

    @settings(max_examples=150, **COMMON)
    @given(
        network(max_n=9, max_slices=6),
        st.lists(st.sampled_from(BOND_SELECTORS), min_size=1, max_size=3),
    )
    def test_matches_per_pair_walk(self, net, bonds):
        wanted = set().union(*(EXPANDED.get(b, {b}) for b in bonds))
        got = relational_system(net, bonds)
        actors, cells = oracles.relational_system(
            net.actors, {s.name: s.cells for s in net.slices}, wanted
        )
        assert list(got.actors) == actors
        assert got.slice_names == net.slice_names
        for s in got.slices:
            assert s.cells.shape == cells[s.name].shape
            assert (s.cells == cells[s.name]).all()


def small_closure(net, cap=25):
    try:
        return generate_strings(net, max_elements=cap)
    except ClosureTooLargeError:
        assume(False)


class TestClosure:
    @settings(suppress_health_check=[HealthCheck.filter_too_much], **COMMON)
    @given(network())
    def test_table_is_associative(self, net):
        strings = small_closure(net)
        sg = build_semigroup(strings)
        t = sg.index_table()
        n = len(t)
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    assert t[t[x][y]][z] == t[x][t[y][z]]

    @settings(suppress_health_check=[HealthCheck.filter_too_much], **COMMON)
    @given(network(max_slices=1))
    def test_congruences_within_exhaustive_set(self, net):
        strings = small_closure(net, cap=12)
        sg = build_semigroup(strings)
        assume(sg.order <= 6)
        table = sg.index_table()
        everything = oracles.all_congruences(table)
        for c in find_congruences(sg):
            assert c.vector in everything

    @settings(suppress_health_check=[HealthCheck.filter_too_much], **COMMON)
    @given(network())
    def test_word_images_multiply_like_the_table(self, net):
        strings = small_closure(net)
        sg = build_semigroup(strings)
        images = strings.images
        t = sg.index_table()
        for x in range(len(t)):
            for y in range(len(t)):
                prod = (images[x].astype(np.uint8) @ images[y].astype(np.uint8)) > 0
                assert (prod == images[t[x][y]]).all()


def proper_cyclic(table):
    """An element whose powers miss some element of the table, if any."""
    for e in range(len(table)):
        powers = {e}
        x = table[e][e]
        while x not in powers:
            powers.add(x)
            x = table[x][e]
        if len(powers) < len(table):
            return e
    return None


class TestTranslationClosure:
    """Closing under the generator translations finds what closing under
    every element finds, with or without usable generators."""

    @settings(
        max_examples=150, suppress_health_check=[HealthCheck.filter_too_much], **COMMON
    )
    @given(network(max_n=4, min_slices=2))
    def test_matches_closure_under_every_element(self, net):
        strings = small_closure(net, cap=12)
        sg = build_semigroup(strings)
        table = sg.index_table()
        n = len(table)
        e = proper_cyclic(table)
        assume(e is not None)
        data = sg.to_dict()
        no_gens = {k: v for k, v in data.items() if k != "generators"}
        variants = [
            (sg, 2 * len({g for _, g in sg.generator_elements()})),
            (semigroup_from_dict(no_gens), 2 * n),
            (semigroup_from_dict(dict(data, generators=[[sg.st[e], e + 1]])), 2 * n),
        ]
        base = string_partial_order(strings).matrix
        want_cc = oracles.congruence_vectors(table)
        want_pi = [(seed, q.tobytes()) for seed, q in oracles.pi_members(table, base)]
        for variant, translations in variants:
            assert len(_translations(variant)[1]) == translations
            assert [c.vector for c in find_congruences(variant)] == want_cc
            lattice = factorize(variant, Poset(variant.st, base))
            got_pi = [
                (m.seed and tuple(variant.st.index(x) for x in m.seed), m.key())
                for m in lattice.members
            ]
            assert got_pi == want_pi


class TestCongruenceDP:
    """The one pass over the pair graph finds the congruences that the
    per-seed search finds, list for list: with the table's generators,
    without them, and with one generator that does not generate."""

    @settings(
        max_examples=100, suppress_health_check=[HealthCheck.filter_too_much], **COMMON
    )
    @given(network(max_n=4, max_slices=3))
    def test_matches_per_seed_search(self, net):
        sg = build_semigroup(small_closure(net, cap=20))
        table = sg.index_table()
        e = proper_cyclic(table)
        assume(e is not None)
        data = sg.to_dict()
        variants = [
            sg,
            semigroup_from_dict({k: v for k, v in data.items() if k != "generators"}),
            semigroup_from_dict(dict(data, generators=[[sg.st[e], e + 1]])),
        ]
        want = oracles.congruence_vectors(table)
        for variant in variants:
            assert [c.vector for c in find_congruences(variant)] == want


class TestPiLatticeQueries:
    """The inclusion matrix read off the members' seeds, and the atoms, meet
    complements and partitions read off it, match the pairwise comparisons,
    member for member."""

    @staticmethod
    def check_inclusion(lattice):
        want = oracles.pi_inclusion([m.matrix for m in lattice.members])
        assert lattice._leq.tolist() == want   # and so the strict order, leq & ~leq.T

    @pytest.mark.parametrize("fixture, transposes", [
        ("netcs", False), ("netcs", True), ("ncc", False),
    ])
    def test_seed_order_on_the_fixtures(self, fixture, transposes, request):
        strings = generate_strings(request.getfixturevalue(fixture), include_transposes=transposes)
        lattice = factorize(build_semigroup(strings), string_partial_order(strings))
        assert lattice.atoms()
        self.check_inclusion(lattice)

    def test_seed_order_at_order_674(self, ncc):
        # ncc with transposes: 1148 members of 674 x 674 cells, within the
        # default byte cap; every 40th member's row and each atom's
        strings = generate_strings(ncc, include_transposes=True)
        lattice = factorize(build_semigroup(strings), string_partial_order(strings))
        members = [m.matrix for m in lattice.members]
        atoms = [i for i, m in enumerate(lattice.members) if m in lattice.atoms()]
        rows = sorted({*range(0, len(members), 40), *atoms})
        assert (len(members), len(atoms)) == (1148, 4)
        assert lattice._leq[rows].tolist() == oracles.pi_inclusion(members, rows)

    @settings(
        max_examples=150, suppress_health_check=[HealthCheck.filter_too_much], **COMMON
    )
    @given(network(max_n=4, min_slices=2))
    def test_match_pairwise_oracles(self, net):
        strings = small_closure(net, cap=12)
        sg = build_semigroup(strings)
        lattice = factorize(sg, string_partial_order(strings))
        self.check_inclusion(lattice)
        members = [m.matrix for m in lattice.members]
        pos = {id(m): i for i, m in enumerate(lattice.members)}

        def positions(found):
            return [pos[id(m)] for m in found]

        atoms = lattice.atoms()
        assert positions(atoms) == oracles.pi_atoms(members, lattice.base)
        for atom in atoms:
            assert positions(lattice.meet_complements(atom)) == (
                oracles.pi_meet_complements(members, atom.matrix)
            )
            got = lattice.designated_complement(atom)
            want = oracles.pi_designated_complement(members, atom.matrix)
            assert (got is None and want is None) or pos[id(got)] == want
        for m in lattice.members:
            assert m.partition() == oracles.mutual_partition(m.matrix)


class TestTableAndOrder:
    """The closure's right Cayley graph, the table derived from it and the
    one-product containment order match the per-cell oracles."""

    @settings(
        max_examples=150, suppress_health_check=[HealthCheck.filter_too_much], **COMMON
    )
    @given(network(max_n=4, max_slices=3), st.booleans(), st.booleans())
    def test_match_per_cell_oracles(self, net, transposes, duplicate):
        if duplicate:
            copy = RelationMatrix("Z", net.actors, net.slices[0].cells)
            net = MultiplexNetwork(net.actors, [*net.slices, copy])
        try:
            strings = generate_strings(net, include_transposes=transposes, max_elements=60)
        except ClosureTooLargeError:
            assume(False)
        letters = [(s.name, s.cells) for s in net.slices]
        if transposes:
            letters += [("t" + s.name, s.cells.T) for s in net.slices]
        want_st, want_gens, want_right = oracles.string_closure(letters)
        assert (list(strings.st), list(strings.generator_elements)) == (want_st, want_gens)
        assert strings.right.tolist() == want_right
        table = build_semigroup(strings).index_table()
        assert table == oracles.semigroup_table(strings.images).tolist()
        order = string_partial_order(strings).matrix
        assert (order == oracles.containment_order(strings.images)).all()


class TestWordWalk:
    """Equations and relation boxes read off the closure's first k levels
    match multiplying every word out."""

    @settings(max_examples=150, **COMMON)
    @given(
        network(max_n=5, max_slices=3), st.booleans(), st.booleans(), st.integers(1, 4)
    )
    def test_match_per_word_products(self, net, transposes, duplicate, k):
        if duplicate:
            copy = RelationMatrix("Z", net.actors, net.slices[0].cells)
            net = MultiplexNetwork(net.actors, [*net.slices, copy])
        letters = [(s.name, s.cells) for s in net.slices]
        if transposes:
            letters += [("t" + s.name, s.cells.T) for s in net.slices]
        words = [("".join(word), img) for word, img in oracles.word_images(letters, k)]
        groups = {}
        for word, img in words:
            groups.setdefault(img.tobytes(), []).append(word)
        want = [(members[0], members) for members in groups.values() if len(members) > 1]
        assert list(equations(net, k, transposes).items()) == want
        box = build_relation_box(net, k, transposes)
        assert box.word_labels == tuple(word for word, _ in words)
        assert len(box.slices) == len(words)
        for got, (_, img) in zip(box.slices, words):
            assert (got == img).all()


class TestGalois:
    @settings(**COMMON)
    @given(st.integers(1, 8), st.integers(1, 8), st.data())
    def test_derivation_laws(self, no, na, data):
        inc = data.draw(
            st.lists(
                st.lists(st.booleans(), min_size=na, max_size=na),
                min_size=no,
                max_size=no,
            )
        )
        objs = [f"o{i}" for i in range(no)]
        atts = [f"m{j}" for j in range(na)]
        ctx = FormalContext(objs, atts, inc)
        subset = data.draw(st.sets(st.sampled_from(objs)))
        closed = extent(ctx, derive(ctx, subset))
        assert subset <= closed
        assert derive(ctx, closed) == derive(ctx, subset)

    @settings(**COMMON)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_concepts_match_exhaustive_enumeration(self, no, na, data):
        inc = data.draw(
            st.lists(
                st.lists(st.booleans(), min_size=na, max_size=na),
                min_size=no,
                max_size=no,
            )
        )
        ctx = FormalContext(
            [f"o{i}" for i in range(no)], [f"m{j}" for j in range(na)], inc
        )
        got = {
            (
                frozenset(list(ctx.objects).index(x) for x in c.extent),
                frozenset(list(ctx.attributes).index(y) for y in c.intent),
            )
            for c in concepts(ctx)
        }
        assert got == oracles.all_concepts(inc)


class TestConceptIndex:
    """The bitset listing, the product intents, the row-lookup reduced labels
    and the one-product order match the list scan, the per-concept
    derivations and the pairwise comparison they replaced, down to contexts
    with no objects or no attributes."""

    @settings(max_examples=150, **COMMON)
    @given(st.integers(0, 9), st.integers(0, 7), st.data())
    def test_listing_and_order_match_the_scans(self, no, na, data):
        inc = data.draw(
            st.lists(
                st.lists(st.booleans(), min_size=na, max_size=na),
                min_size=no,
                max_size=no,
            )
        )
        inc = np.array(inc, dtype=bool).reshape(no, na)
        objs = [f"o{i}" for i in range(no)]
        atts = [f"m{j}" for j in range(na)]
        ctx = FormalContext(objs, atts, inc)
        cs = concepts(ctx)
        extents = oracles.concept_extents(inc)
        assert [c.extent for c in cs] == [frozenset(objs[g] for g in e) for e in extents]
        labels = [
            (
                frozenset(atts[m] for m in intent),
                tuple(objs[g] for g in reduced_objects),
                tuple(atts[m] for m in reduced_attributes),
            )
            for intent, reduced_objects, reduced_attributes in oracles.concept_labels(
                inc, extents
            )
        ]
        assert [(c.intent, c.reduced_objects, c.reduced_attributes) for c in cs] == labels
        co = concept_order(cs)
        assert (co.matrix == oracles.concept_order(extents)).all()
        for c in cs:
            assert cs.by_extent(c.extent) is c
            assert co.join(c.index - 1, 0).intent == c.intent & cs[0].intent


@st.composite
def awkward_context(draw):
    """A random incidence with, on request, a repeated column, an all-false
    column and an all-false row (whose full object set is then no column
    extent)."""
    no, na = draw(st.integers(0, 8)), draw(st.integers(0, 6))
    inc = np.array(
        draw(st.lists(st.booleans(), min_size=no * na, max_size=no * na)), dtype=bool
    ).reshape(no, na)
    if na and draw(st.booleans()):
        inc = np.hstack([inc, inc[:, [draw(st.integers(0, na - 1))]]])
    if draw(st.booleans()):
        inc = np.hstack([inc, np.zeros((no, 1), dtype=bool)])
    if draw(st.booleans()):
        inc = np.vstack([inc, np.zeros((1, inc.shape[1]), dtype=bool)])
    return inc


class TestLazyListing:
    """The listing reads concepts off its two matrices and two label arrays
    only when asked: single concepts, the full listing, the order, meets,
    joins, lookups, filters and the dict export all match the scans."""

    @settings(max_examples=200, **COMMON)
    @given(awkward_context(), st.integers(0, 999), st.integers(0, 999), st.booleans())
    @example(
        np.array([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [1, 1, 1, 0]], dtype=bool), 5, 2, True
    ).via("duplicate columns, an all-false row and column")
    def test_lazy_listing_matches_the_scans(self, inc, pick, other, ideal):
        no, na = inc.shape
        objs = [f"o{i}" for i in range(no)]
        atts = [f"m{j}" for j in range(na)]
        extents = oracles.concept_extents(inc)
        rows = oracles.concept_labels(inc, extents)
        want = [
            (
                frozenset(objs[g] for g in e),
                frozenset(atts[m] for m in intent),
                tuple(objs[g] for g in ro),
                tuple(atts[m] for m in ra),
            )
            for e, (intent, ro, ra) in zip(extents, rows)
        ]
        order = oracles.concept_order(extents)
        cs = concepts(FormalContext(objs, atts, inc))
        assert len(cs) == len(want)
        k = pick % len(cs)
        single = cs[k]   # built alone, and kept for the listing
        assert (single.index, single.extent, single.intent) == (k + 1, *want[k][:2])
        assert [(c.extent, c.intent, c.reduced_objects, c.reduced_attributes) for c in cs] == want
        assert cs[k] is single and cs.members[k] is single and cs[k - len(cs)] is single
        assert [c.index for c in cs] == list(range(1, len(cs) + 1))

        co = concept_order(cs)
        assert list(co.labels) == [f"c{i}" for i in range(1, len(cs) + 1)]
        assert (co.matrix == order).all()
        i, j = other % len(cs), k
        assert co.meet(i, j).index == extents.index(extents[i] & extents[j]) + 1
        joined = want[i][1] & want[j][1]
        assert co.join(i, j).index == [w[1] for w in want].index(joined) + 1
        assert all(cs.by_extent(c.extent) is c for c in cs)
        assert cs.by_extent(["nobody"]) is None

        def label(p):
            ro, ra = sorted(want[p][2]), sorted(want[p][3])
            return "{%s} {%s}" % (", ".join(ra), ", ".join(ro)) if ro or ra else str(p + 1)

        named = (objs + atts)[other % (no + na)] if no + na else None
        for sel in filter(None, [str(k + 1), named]):
            at = int(sel) - 1 if sel.isdigit() else next(
                p for p, w in enumerate(want) if sel in w[2] + w[3]
            )
            chosen = np.flatnonzero(order[:, at] if ideal else order[at])
            assert filter_ideal(co, [sel], ideal=ideal) == {p + 1: label(p) for p in chosen}

        assert concepts(FormalContext(objs, atts, inc)).to_dict() == [
            {
                "index": p + 1,
                "extent": sorted(e),
                "intent": sorted(intent),
                "reduced_objects": sorted(ro),
                "reduced_attributes": sorted(ra),
            }
            for p, (e, intent, ro, ra) in enumerate(want)
        ]


class TestHasse:
    EDGE = re.compile(r'"([^"]+)" -> "([^"]+)"')

    @settings(**COMMON)
    @given(random_poset())
    def test_reduction_closes_back_to_the_order(self, po):
        pos = {x: i for i, x in enumerate(po.labels)}
        m = np.eye(po.n, dtype=bool)
        for x, y in self.EDGE.findall(hasse_dot(po).text):
            m[pos[x], pos[y]] = True
        assert (transitive_closure(m) == po.matrix).all()


class TestValences:
    @settings(**COMMON)
    @given(
        signed_matrix(),
        st.sampled_from(["balance", "cluster"]),
        st.integers(1, 3),
        st.booleans(),
    )
    def test_powers_accumulate_walk_valences(self, s, mode, k, semipaths):
        spec = BALANCE if mode == "balance" else CLUSTER
        base = symmetric_closure(s) if semipaths else s
        cells = {
            (i, j): base.cells[i, j]
            for i in range(s.n)
            for j in range(s.n)
            if base.cells[i, j] != "o"
        }
        want = oracles.walk_valence_sum(s.n, cells, spec.add_table, spec.mul_table, k)
        got = semiring_powers(s, spec=spec, k=k, semipaths=semipaths)
        assert [list(r) for r in got.cells] == want

    @settings(**COMMON)
    @given(signed_matrix())
    def test_symmetric_closure_is_idempotent(self, s):
        once = symmetric_closure(s)
        assert symmetric_closure(once) == once


class TestLookupEvaluator:
    """The lookup-table evaluator matches the per-cell loops it replaced."""

    CASES = [(o + letters, spec) for o in ("", "oooooo")
             for letters, spec in (("pona", BALANCE), ("pona", CLUSTER), ("ponaq", CLUSTER))]

    # sparse letter sets ("oooooo" + ...) give long shortest walks, so the
    # walk sums go on changing past the first few powers
    @settings(max_examples=150, **COMMON)
    @given(
        st.sampled_from(CASES).flatmap(
            lambda case: st.tuples(
                signed_matrix(max_n=8, letters=case[0], loops=True), st.just(case[1])
            )
        ),
        st.booleans(),
    )
    def test_matches_per_cell_loops(self, case, semipaths):
        s, spec = case
        sym = oracles.symmetric_cells(s.cells)
        assert (symmetric_closure(s).cells == sym).all()
        m = sym if semipaths else s.cells
        for k in range(1, 7):
            got = semiring_powers(s, spec=spec, k=k, semipaths=semipaths)
            assert (got.cells == oracles.power_sum(m, spec, k)).all()
        want = oracles.closure_cells(m, spec, s.n * len(spec.carrier))
        assert want is not None
        assert (balance_closure(s, spec=spec, semipaths=semipaths).cells == want).all()


def random_letters(seed, n, letters, density):
    """n x n cells, each a nonzero letter of letters with probability density, else o."""
    rng = np.random.default_rng(seed)
    cells = rng.choice([v for v in letters if v != "o"], (n, n))
    cells[rng.random((n, n)) >= density] = "o"
    return cells


class TestBitsetEvaluator:
    """Above 32 actors the semiring product runs on packed bitsets; it matches
    the per-middle-actor gather."""

    # dense and sparse letter sets; at density .03 the shortest walks grow
    # long, so the walk sums go on changing for many powers
    CASE = st.tuples(
        st.integers(0, 2**32 - 1),
        st.integers(33, 70),
        st.sampled_from([("pona", BALANCE), ("pona", CLUSTER), ("ponaq", CLUSTER)]),
        st.sampled_from([1.0, 0.3, 0.03]),
    )

    @settings(max_examples=40, **COMMON)
    @given(CASE)
    def test_product_matches_gather(self, case):
        seed, n, (letters, spec), density = case
        a, b = (random_letters(seed + i, n, letters, density) for i in (0, 1))
        codes = [SignedMatrix(actor_names(n), x).codes for x in (a, b)]
        got = np.array(VALENCES)[_product(*codes, spec)]
        assert (got == oracles.gather_product(a, b, spec)).all()

    @settings(max_examples=25, **COMMON)
    @given(CASE, st.booleans())
    def test_powers_and_closure_match_gather(self, case, semipaths):
        seed, n, (letters, spec), density = case
        s = SignedMatrix(actor_names(n), random_letters(seed, n, letters, density))
        m = oracles.symmetric_cells(s.cells) if semipaths else s.cells
        for k in (1, 2, 3, 5):
            got = semiring_powers(s, spec=spec, k=k, semipaths=semipaths)
            assert (got.cells == oracles.gather_walk_sums(m, spec, k)).all()
        got = balance_closure(s, spec=spec, semipaths=semipaths)
        assert (got.cells == oracles.gather_walk_sums(m, spec)).all()


@st.composite
def table_and_classes(draw, max_n=7):
    """A 0-based table and a class vector (ids 1..3, any order) over it.

    The table is drawn over a quotient table of the classes, so the vector
    starts out a congruence; one cell may then be overwritten at random.
    """
    n = draw(st.integers(1, max_n))
    vector = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    members = {c: [x for x in range(n) if vector[x] == c] for c in vector}
    quotient = {(a, b): draw(st.sampled_from(sorted(members))) for a in members for b in members}
    table = [
        [draw(st.sampled_from(members[quotient[vector[x], vector[y]]])) for y in range(n)]
        for x in range(n)
    ]
    if draw(st.booleans()):
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[x][y] = draw(st.integers(0, n - 1))
    return table, vector


class TestCongruenceCheck:
    @settings(max_examples=200, **COMMON)
    @given(table_and_classes())
    def test_matches_substitution_oracle(self, case):
        table, vector = case
        sg = semigroup_from_dict(
            {"st": actor_names(len(table)), "table": [[c + 1 for c in row] for row in table]}
        )
        blocks = [{x for x, c in enumerate(vector) if c == k} for k in set(vector)]
        assert is_congruence(sg, vector) == oracles.is_congruence(table, blocks)


@st.composite
def relabelling(draw, vector):
    """The vector with its class ids swapped for distinct ints of any scale, or strings."""
    ids = sorted(set(vector))
    kind = draw(st.sampled_from([st.integers(-10**12, 10**12), st.text("abcxyz", max_size=3)]))
    fresh = draw(st.lists(kind, min_size=len(ids), max_size=len(ids), unique=True))
    return tuple(dict(zip(ids, fresh))[c] for c in vector)


class TestQuotient:
    """Every quotient matches the per-cell oracle under any relabelling of the
    class ids, and reports the canonical vector."""

    @settings(max_examples=200, **COMMON)
    @given(table_and_classes(), st.data())
    def test_cc_and_check_match_the_oracle(self, case, data):
        table, vector = case
        sg = semigroup_from_dict(
            {"st": actor_names(len(table)), "table": [[c + 1 for c in row] for row in table]}
        )
        ids = data.draw(relabelling(vector))
        want = oracles.quotient(table, sg.st, vector)
        assert is_congruence(sg, ids) == (want is not None)
        if want is None:
            with pytest.raises(ValidationError):
                decompose(sg, [Congruence(sg.st, ids)], mode="cc")
            return
        (r,) = decompose(sg, [Congruence(sg.st, ids)], mode="cc")
        assert (r.vector, r.table) == (canonical(vector), want)

    @settings(
        max_examples=60, suppress_health_check=[HealthCheck.filter_too_much], **COMMON
    )
    @given(network(max_n=4, min_slices=2), st.data())
    def test_lattice_sources_match_the_oracle(self, net, data):
        strings = small_closure(net, cap=12)
        sg = build_semigroup(strings)
        table = sg.index_table()
        lattice = factorize(sg, string_partial_order(strings))
        for mode in ("atoms", "mca"):
            sources = [
                a if mode == "atoms" else lattice.designated_complement(a) for a in lattice.atoms()
            ]
            sources = [s for s in sources if s is not None]
            got = decompose(sg, lattice, mode=mode)
            assert len(got) == len(sources)
            for r, source in zip(got, sources):
                vector = source.partition()
                want = oracles.quotient(table, sg.st, vector)
                assert (r.vector, r.table) == (canonical(vector), want)
                firsts = [vector.index(c) for c in sorted(set(vector))]
                assert r.order.labels == tuple(sg.st[x] for x in firsts)
                assert (r.order.matrix == source.matrix[np.ix_(firsts, firsts)]).all()
                ids = data.draw(relabelling(vector))
                (again,) = decompose(sg, [Congruence(sg.st, ids)], mode="cc")
                assert (again.vector, again.table) == (r.vector, r.table)


class TestHierarchies:
    @settings(**COMMON)
    @given(network(max_n=5, max_slices=2), st.integers(1, 2), st.data())
    def test_single_actor_order_matches_profile_chasing(self, net, k, data):
        box = build_relation_box(net, k=k)
        cells = [s.tolist() for s in box.slices]
        ego = data.draw(st.sampled_from(range(net.n)))
        m = person_hierarchy(box, net.actors[ego]).matrix
        want = oracles.transitive_closure(
            net.n,
            oracles.person_order(cells, net.n, box.depth, ego) | {(i, i) for i in range(net.n)},
        )
        assert pairs_of(m) == want

    @settings(**COMMON)
    @given(network(max_n=5, max_slices=2), st.integers(1, 2))
    def test_cumulated_order_matches_profile_chasing(self, net, k):
        box = build_relation_box(net, k=k)
        cells = [s.tolist() for s in box.slices]
        got = pairs_of(cumulated_hierarchy(box).matrix)
        assert got == oracles.cumulated_order(cells, net.n, box.depth)
