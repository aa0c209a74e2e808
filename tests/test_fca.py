import itertools

import pytest

import oracles
from conftest import golden
from relalg import (
    Concept,
    FormalContext,
    TooManyConceptsError,
    ValidationError,
    concept_order,
    concepts,
    derive,
    extent,
    filter_ideal,
)
from relalg import fca


@pytest.fixture(scope="module")
def g20_concepts(g20):
    return concepts(g20)


@pytest.fixture(scope="module")
def g20_order(g20_concepts):
    return concept_order(g20_concepts)


class TestContext:
    def test_duplicate_object_labels(self):
        with pytest.raises(ValidationError):
            FormalContext(["x", "x"], ["a"], [[1], [0]])

    def test_duplicate_attribute_labels(self):
        with pytest.raises(ValidationError):
            FormalContext(["x", "y"], ["a", "a"], [[1, 0], [0, 1]])

    def test_incidence_shape(self):
        with pytest.raises(ValidationError):
            FormalContext(["x", "y"], ["a"], [[1, 0], [0, 1]])

    def test_dict_round_trip(self, g20):
        again = FormalContext.from_dict(g20.to_dict())
        assert list(again.objects) == list(g20.objects)
        assert list(again.attributes) == list(g20.attributes)
        assert (again.incidence == g20.incidence).all()

    def test_from_dict_rejects_missing_keys(self):
        with pytest.raises(ValidationError):
            FormalContext.from_dict({"objects": ["x"]})

    def test_csv_parse_matches_programmatic_build(self, g20):
        rows = ["," + ",".join(g20.attributes)]
        for i, obj in enumerate(g20.objects):
            rows.append(obj + "," + ",".join(str(int(v)) for v in g20.incidence[i]))
        parsed = FormalContext.from_csv("\n".join(rows) + "\n")
        assert list(parsed.objects) == list(g20.objects)
        assert list(parsed.attributes) == list(g20.attributes)
        assert (parsed.incidence == g20.incidence).all()

    def test_csv_blank_cell_means_no_incidence(self):
        ctx = FormalContext.from_csv(",a,b\nx,1,\ny,0,1\n")
        assert ctx.incidence.tolist() == [[True, False], [False, True]]


class TestDerivations:
    def test_object_set_to_shared_attributes(self, g20):
        objs = list(g20.objects)
        rows = [objs.index("DEU"), objs.index("FRA")]
        want = {
            a
            for k, a in enumerate(g20.attributes)
            if all(g20.incidence[r, k] for r in rows)
        }
        assert derive(g20, ["DEU", "FRA"]) == want

    def test_p5_membership(self, g20):
        assert extent(g20, ["P5"]) == frozenset({"CHN", "FRA", "GBR", "RUS", "USA"})

    def test_empty_attribute_set_yields_every_object(self, g20):
        assert extent(g20, []) == frozenset(g20.objects)

    def test_empty_object_set_yields_every_attribute(self, g20):
        assert derive(g20, []) == frozenset(g20.attributes)

    def test_galois_laws_on_g20(self, g20):
        for size in (1, 2):
            for objs in itertools.combinations(list(g20.objects)[:8], size):
                a = set(objs)
                aa = extent(g20, derive(g20, a))
                assert a <= aa
                assert derive(g20, aa) == derive(g20, a)

    def test_unknown_labels_rejected(self, g20):
        with pytest.raises(ValidationError):
            derive(g20, ["ATLANTIS"])
        with pytest.raises(ValidationError):
            extent(g20, ["X99"])


class TestConcepts:
    def test_count(self, g20_concepts):
        assert len(g20_concepts) == golden("g20_concepts.json")["count"]

    def test_leading_concepts_match_reference(self, g20_concepts):
        for i, want in enumerate(golden("g20_concepts.json")["full_prefix"]):
            c = g20_concepts[i]
            assert c.intent == frozenset(want["intent"])
            assert c.extent == frozenset(want["extent"])

    def test_leading_reduced_labels_match_reference(self, g20_concepts):
        for i, want in enumerate(golden("g20_concepts.json")["reduced_prefix"]):
            c = g20_concepts[i]
            assert sorted(c.reduced_attributes) == sorted(want["attributes"])
            assert sorted(c.reduced_objects) == sorted(want["objects"])

    def test_bare_index_label_for_unreduced_concepts(self, g20_concepts):
        for idx in golden("g20_concepts.json")["unlabeled"]:
            c = g20_concepts[idx - 1]
            assert not c.reduced_attributes and not c.reduced_objects
            assert c.label() == str(idx)

    def test_matches_exhaustive_enumeration(self, g20):
        want = oracles.all_concepts(g20.incidence.tolist())
        obj = list(g20.objects)
        att = list(g20.attributes)
        got = {
            (
                frozenset(obj.index(x) for x in c.extent),
                frozenset(att.index(y) for y in c.intent),
            )
            for c in concepts(g20)
        }
        assert got == want

    def test_extent_intent_are_derivations_of_each_other(self, g20, g20_concepts):
        for c in g20_concepts:
            assert derive(g20, c.extent) == c.intent
            assert extent(g20, c.intent) == c.extent

    def test_by_extent_lookup(self, g20_concepts):
        third = g20_concepts[2]
        assert g20_concepts.by_extent(third.extent) is third
        assert g20_concepts.by_extent(frozenset({"ARG"})) is None

    def test_each_object_reduced_to_exactly_one_concept(self, g20, g20_concepts):
        seen = [o for c in g20_concepts for o in c.reduced_objects]
        assert sorted(seen) == sorted(g20.objects)

    def test_each_attribute_reduced_to_exactly_one_concept(self, g20, g20_concepts):
        seen = [a for c in g20_concepts for a in c.reduced_attributes]
        assert sorted(seen) == sorted(g20.attributes)


class TestConceptCap:
    def test_cap_stops_the_enumeration(self, g20):
        assert len(concepts(g20, max_concepts=25)) == 25
        with pytest.raises(TooManyConceptsError) as exc:
            concepts(g20, max_concepts=24)
        assert exc.value.cap == 24

    def test_full_object_set_counts_against_the_cap(self):
        # the columns give one extent, {g}; the full set {g, h} comes last
        ctx = FormalContext(["g", "h"], ["m"], [[1], [0]])
        assert len(concepts(ctx, max_concepts=2)) == 2
        with pytest.raises(TooManyConceptsError):
            concepts(ctx, max_concepts=1)

    def test_cap_from_the_environment(self, g20, monkeypatch):
        monkeypatch.setenv("RELALG_MAX_CONCEPTS", "3")
        with pytest.raises(TooManyConceptsError):
            concepts(g20)
        assert len(concepts(g20, max_concepts=100)) == 25


class TestOrder:
    def test_matrix_matches_reference(self, g20_order):
        want = golden("g20_concept_order.json")
        assert list(g20_order.labels) == want["labels"]
        assert g20_order.matrix.astype(int).tolist() == want["matrix"]

    def test_single_bottom_and_top(self, g20_order):
        m = g20_order.matrix
        bottoms = [i for i in range(m.shape[0]) if m[i].all()]
        tops = [j for j in range(m.shape[1]) if m[:, j].all()]
        assert bottoms == [9]   # c10, beneath everything
        assert tops == [24]     # c25, above everything

    def test_order_is_extent_containment(self, g20_order):
        cs = g20_order.concepts
        for i in range(len(cs)):
            for j in range(len(cs)):
                assert bool(g20_order.matrix[i, j]) == (cs[i].extent <= cs[j].extent)

    def test_axioms(self, g20_order):
        assert g20_order.check() is g20_order

    def test_custom_labels(self, g20_concepts):
        labels = [f"k{i}" for i in range(1, 26)]
        co = concept_order(g20_concepts, labels=labels)
        assert list(co.labels) == labels

    def test_label_count_mismatch(self, g20_concepts):
        with pytest.raises(ValidationError):
            concept_order(g20_concepts, labels=["only-one"])

    def test_meet_is_extent_intersection(self, g20_order):
        cs = g20_order.concepts
        for i, j in itertools.combinations(range(len(cs)), 2):
            c = g20_order.meet(i, j)
            assert c.extent == cs[i].extent & cs[j].extent

    def test_join_is_intent_intersection(self, g20_order):
        cs = g20_order.concepts
        for i, j in itertools.combinations(range(len(cs)), 2):
            c = g20_order.join(i, j)
            assert c.intent == cs[i].intent & cs[j].intent

    def test_extents_rebuild_from_reduced_object_ideals(self, g20_order):
        cs = g20_order.concepts
        for k, c in enumerate(cs):
            below = g20_order.downset(g20_order.labels[k])
            rebuilt = set()
            for b in below:
                rebuilt.update(cs[b].reduced_objects)
            assert rebuilt == set(c.extent)

    def test_intents_rebuild_from_reduced_attribute_filters(self, g20_order):
        cs = g20_order.concepts
        for k, c in enumerate(cs):
            above = g20_order.upset(g20_order.labels[k])
            rebuilt = set()
            for a in above:
                rebuilt.update(cs[a].reduced_attributes)
            assert rebuilt == set(c.intent)


class TestFilters:
    def test_filter_of_third_concept(self, g20_order):
        want = {int(k): v for k, v in golden("g20_filters.json")["filter_3"].items()}
        assert filter_ideal(g20_order, ["3"]) == want

    def test_ideal_of_two_concepts_by_label(self, g20_order):
        want = {
            int(k): v for k, v in golden("g20_filters.json")["ideal_G7_BRICS"].items()
        }
        assert filter_ideal(g20_order, ["G7", "BRICS"], ideal=True) == want

    def test_filter_of_top_is_itself(self, g20_order):
        assert filter_ideal(g20_order, ["25"]) == {25: "{} {ARG, SAU}"}

    def test_scalar_selector_accepted(self, g20_order):
        assert filter_ideal(g20_order, "25") == {25: "{} {ARG, SAU}"}

    def test_unknown_selector(self, g20_order):
        with pytest.raises(ValidationError):
            filter_ideal(g20_order, ["ATLANTIS"])

    def test_index_out_of_range(self, g20_order):
        with pytest.raises(ValidationError):
            filter_ideal(g20_order, ["26"])
        with pytest.raises(ValidationError):
            filter_ideal(g20_order, ["0"])

    def test_a_name_on_two_concepts_is_ambiguous(self):
        # object x labels {x}'s concept, attribute x the concept of column x, {b}
        ctx = FormalContext(["x", "b"], ["x", "y"], [[0, 1], [1, 0]])
        co = concept_order(concepts(ctx))
        with pytest.raises(ValidationError, match=r"^'x' labels several concepts: \[0, 1\]$"):
            filter_ideal(co, ["x"])
        assert filter_ideal(co, ["y"], ideal=True) == {2: "{y} {x}", 3: "3"}
        # object x and attribute x on one concept name it once
        co = concept_order(concepts(FormalContext(["x", "b"], ["x", "y"], [[1, 0], [0, 1]])))
        assert filter_ideal(co, ["x"]) == filter_ideal(co, ["1"]) == {1: "{x} {x}", 4: "4"}

    def test_empty_selection(self, g20_order):
        with pytest.raises(ValidationError):
            filter_ideal(g20_order, [])


class TestLazyConcepts:
    """`concepts` keeps two matrices and two label arrays; a `Concept` is
    built when it is read, once."""

    @pytest.fixture
    def built(self, monkeypatch):
        out = []

        class Counted(Concept):
            def __init__(self, index, *args):
                out.append(index)
                super().__init__(index, *args)

        monkeypatch.setattr(fca, "Concept", Counted)
        return out

    def test_filter_builds_only_what_it_returns(self, g20, built):
        co = concept_order(concepts(g20))
        assert built == []
        got = filter_ideal(co, ["1"])
        assert sorted(built) == list(got) and len(got) < len(co.concepts)

    def test_each_concept_is_built_once(self, g20, built):
        cs = concepts(g20)
        third = cs[2]
        assert cs[2] is third and built == [3]
        assert list(cs)[2] is third and cs.by_extent(third.extent) is third
        assert sorted(built) == list(range(1, 26))

    def test_matrices_and_label_arrays(self, g20, g20_concepts):
        cs = g20_concepts
        assert cs.extent_matrix.shape == (25, len(g20.objects))
        assert cs.intent_matrix.shape == (25, len(g20.attributes))
        for g, k in zip(g20.objects, cs.object_concept):
            assert g in cs[k].reduced_objects
        for m, k in zip(g20.attributes, cs.attribute_concept):
            assert m in cs[k].reduced_attributes
        assert not cs.extent_matrix.flags.writeable and not cs.object_concept.flags.writeable
