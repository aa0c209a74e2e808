"""The in-process workloads: algebra and wide.

A workload is a fixed list of analyses; an analysis is one job a user runs.
Its run() makes the timed library calls through a tracer and returns their
outputs; its check() tests those outputs against checks.py, outside the
timed region, and names each operation with the problem found, if any.
"""

from dataclasses import dataclass, field

import numpy as np

import checks
import inputs
from relalg import (
    BALANCE,
    CLUSTER,
    FormalContext,
    MultiplexNetwork,
    RelationMatrix,
    balance_closure,
    bipartite_dot,
    build_relation_box,
    build_semigroup,
    bundle_census,
    cayley_dot,
    cohesion_reciprocity,
    compose,
    concept_order,
    concepts,
    cumulated_hierarchy,
    decompose,
    equations,
    factorize,
    filter_ideal,
    find_congruences,
    fixtures,
    generate_strings,
    hasse_dot,
    is_balanced,
    make_signed,
    reduce_network,
    relational_system,
    semiring_powers,
    string_partial_order,
)

# Operations that fail on every run because of a fault named in CHANGES.md:
# boolean products in uint8 wrap at 256 witnesses (netcore.compose and the
# product shared by generate_strings, equations and build_relation_box).
UINT8_WRAP = ("netcore.compose", "positional.build_relation_box")

# Semigroup orders of the seeded algebra inputs: large closures, small tables.
CLOSURE_ORDER = 180
TABLE_ORDER = 9


@dataclass
class Analysis:
    label: str
    run: object            # run(tracer) -> outputs
    check: object          # check(outputs, rng) -> [(operation, problem or None)]
    faults: frozenset = field(default_factory=frozenset)


def network(names, mats):
    actors = inputs.labels("a", len(mats[0]))
    return MultiplexNetwork(
        actors, [RelationMatrix(n, actors, m) for n, m in zip(names, mats)]
    )


# ------------------------------------------------------------------ algebra


def closure_analysis(label, net, k):
    letters = checks.letters_of(net)
    words = sum(len(letters) ** d for d in range(1, k + 1))

    def run(tr):
        strings = tr.call("semigroup.generate_strings", generate_strings, net)
        n = strings.order
        tr.count("semigroup.generate_strings.elements", n)
        sg = tr.call("semigroup.build_semigroup", build_semigroup, strings)
        tr.count("semigroup.build_semigroup.cells", n * n)
        po = tr.call("semigroup.string_partial_order", string_partial_order, strings)
        tr.count("semigroup.string_partial_order.cells", n * n)
        eq = tr.call("semigroup.equations", equations, net, k)
        tr.count("semigroup.equations.words", words)
        tr.count("semigroup.equations.distinct", words - sum(map(len, eq.values())) + len(eq))
        dot = tr.call("dot.hasse_dot", hasse_dot, po)
        tr.count("dot.bytes", len(dot.text))
        return strings, sg, po, eq, dot

    def check(out, rng):
        strings, sg, po, eq, dot = out
        return [
            ("semigroup.generate_strings", checks.check_strings(letters, strings)),
            ("semigroup.build_semigroup", checks.check_table(strings, sg, rng)),
            ("semigroup.string_partial_order", checks.check_order(strings, po)),
            ("semigroup.equations", checks.check_equations(letters, k, eq)),
            ("dot.hasse_dot", checks.check_hasse(
                list(strings.st), checks.containment(strings.images), dot.text,
                checks.sample_rows(strings.order, rng))),
        ]

    return Analysis(label, run, check)


def decomposition_analysis(label, net):
    letters = checks.letters_of(net)

    def run(tr):
        strings = tr.call("semigroup.generate_strings", generate_strings, net)
        n = strings.order
        tr.count("semigroup.generate_strings.elements", n)
        sg = tr.call("semigroup.build_semigroup", build_semigroup, strings, "symbolic")
        tr.count("semigroup.build_semigroup.cells", n * n)
        po = tr.call("semigroup.string_partial_order", string_partial_order, strings)
        tr.count("semigroup.string_partial_order.cells", n * n)
        cc = tr.call("decomp.find_congruences", find_congruences, sg)
        tr.count("decomp.find_congruences.seeds", n * (n - 1) // 2)
        tr.count("decomp.find_congruences.kept", len(cc))
        lattice = tr.call("decomp.factorize", factorize, sg, po)
        tr.count("decomp.factorize.seeds", n * n - int(po.matrix.sum()))
        tr.count("decomp.factorize.members", len(lattice.members))
        tr.count("decomp.factorize.kept", len(lattice.members) - 1)
        red_cc = tr.call("decomp.decompose", decompose, sg, cc, "cc")
        red_mca = tr.call("decomp.decompose", decompose, sg, lattice, "mca")
        dot = tr.call("dot.cayley_dot", cayley_dot, sg)
        tr.count("dot.bytes", len(dot.text))
        return strings, sg, po, cc, lattice, red_cc, red_mca, dot

    def check(out, rng):
        strings, sg, po, cc, lattice, red_cc, red_mca, dot = out
        table = np.array(sg.index_table())
        base = checks.containment(strings.images)
        st = list(sg.st)
        return [
            ("semigroup.generate_strings", checks.check_strings(letters, strings)),
            ("semigroup.build_semigroup", checks.check_table(strings, sg, rng)),
            ("semigroup.string_partial_order", checks.check_order(strings, po)),
            ("decomp.find_congruences", checks.check_congruences(table, cc)),
            ("decomp.factorize", checks.check_pi_lattice(table, base, lattice)),
            ("decomp.decompose", checks.check_reductions_cc(table, st, cc, red_cc)),
            ("decomp.decompose", checks.check_reductions_mca(table, st, red_mca)),
            ("dot.cayley_dot", checks.check_cayley(strings, letters, dot.text)),
        ]

    return Analysis(label, run, check)


def algebra(rng, quick):
    """Paper fixtures ncc and netcs; a few large string semigroups of 5-6
    actors, closed and ordered; then many small tables of 3-4 actors,
    decomposed."""
    out = [closure_analysis("ncc", fixtures.ncc(), 6),
           decomposition_analysis("netcs", fixtures.netcs())]
    target, count, pool = (30, 1, 60) if quick else (CLOSURE_ORDER, 2, 600)
    big = [(n, mats) for n in ((4,) if quick else (5, 6))
           for mats in inputs.nearest_order(rng, n, 3, 0.25, target, count, pool)]
    out += [closure_analysis(f"closure{i}-n{n}", network("ABC", mats), 6)
            for i, (n, mats) in enumerate(big)]
    count, pool = (1, 100) if quick else (16, 1000)
    small = [(n, mats) for n in (3, 4)
             for mats in inputs.nearest_order(rng, n, 2, 0.35, TABLE_ORDER, count, pool)]
    out += [decomposition_analysis(f"decomp{i}-n{n}", network("AB", mats))
            for i, (n, mats) in enumerate(small)]
    return out


# --------------------------------------------------------------------- wide


def census_analysis(label, net):
    stack = checks.stack_of(net)
    actors = list(net.actors)

    def run(tr):
        census = tr.call("bundles.bundle_census", bundle_census, net)
        tr.count("bundles.bundle_census.dyads", net.n * (net.n - 1) // 2)
        stats = tr.call("bundles.cohesion_reciprocity", cohesion_reciprocity, census)
        system = tr.call("bundles.relational_system", relational_system, net, ["strong"])
        return census, stats, system

    def check(out, rng):
        census, stats, system = out
        return [
            ("bundles.bundle_census", checks.check_census(stack, census)),
            ("bundles.cohesion_reciprocity", checks.check_stats(stack, stats)),
            ("bundles.relational_system",
             checks.check_relsys(stack, actors, checks.STRONG, system)),
        ]

    return Analysis(label, run, check)


def compose_analysis(label, net, faults=()):
    """A chain of two products, A then B, then A again."""
    a, b = net.slices[:2]

    def run(tr):
        ab = tr.call("netcore.compose", compose, a, b)
        aba = tr.call("netcore.compose", compose, ab, a)
        tr.count("netcore.compose.ops", 2 * net.n ** 3)
        return ab, aba

    def check(out, rng):
        ab, aba = out
        rows = checks.sample_rows(net.n, rng)
        want_ab = checks.bool_product(a.cells[rows], b.cells)
        want_aba = checks.bool_product(want_ab, a.cells)
        return [
            ("netcore.compose", checks.check_product(want_ab, ab.cells, rows, "A*B")),
            ("netcore.compose", checks.check_product(want_aba, aba.cells, rows, "A*B*A")),
        ]

    return Analysis(label, run, check, frozenset(faults))


def box_analysis(label, net, k, faults=()):
    letters = checks.letters_of(net)

    def run(tr):
        box = tr.call("positional.build_relation_box", build_relation_box, net, k)
        tr.count("positional.build_relation_box.words", box.depth)
        return box

    def check(box, rng):
        rows = checks.sample_rows(net.n, rng)
        return [("positional.build_relation_box", checks.check_box(letters, k, box, rows))]

    return Analysis(label, run, check, frozenset(faults))


def positional_analysis(label, net, k, clustering):
    letters = checks.letters_of(net)
    stack = checks.stack_of(net)

    def run(tr):
        box = tr.call("positional.build_relation_box", build_relation_box, net, k)
        tr.count("positional.build_relation_box.words", box.depth)
        po = tr.call("positional.cumulated_hierarchy", cumulated_hierarchy, box)
        system = tr.call("positional.reduce_network", reduce_network, net, clustering)
        return box, po, system

    def check(out, rng):
        box, po, system = out
        slices = [img for _, img in checks.level_images(letters, k)]
        return [
            ("positional.build_relation_box",
             checks.check_box(letters, k, box, checks.sample_rows(net.n, rng))),
            ("positional.cumulated_hierarchy", checks.check_cph(slices, po)),
            ("positional.reduce_network", checks.check_reduce(
                stack, list(net.actors), clustering, system)),
        ]

    return Analysis(label, run, check)


def signed_analysis(label, pos, neg):
    actors = inputs.labels("s", len(pos))
    s = make_signed(RelationMatrix("P", actors, pos), RelationMatrix("N", actors, neg))
    m = checks.symmetrised(checks.sign_letters(pos, neg))

    def run(tr):
        qb = tr.call("signed.balance_closure", balance_closure, s, BALANCE)
        qc = tr.call("signed.balance_closure", balance_closure, s, CLUSTER)
        q3 = tr.call("signed.semiring_powers", semiring_powers, s, BALANCE, 3)
        verdict = tr.call("signed.is_balanced", is_balanced, qb)
        return qb, qc, q3, verdict

    def check(out, rng):
        qb, qc, q3, verdict = out
        return [
            ("signed.balance_closure", checks.check_fixpoint(m, BALANCE, qb)),
            ("signed.balance_closure", checks.check_fixpoint(m, CLUSTER, qc)),
            ("signed.semiring_powers", checks.check_powers(m, BALANCE, 3, q3)),
            ("signed.is_balanced", checks.check_verdict(pos, neg, actors, verdict)),
        ]

    return Analysis(label, run, check)


def fca_analysis(label, ctx, selectors, ideal):
    objects, attributes = list(ctx.objects), list(ctx.attributes)
    inc = np.asarray(ctx.incidence)

    def run(tr):
        cs = tr.call("fca.concepts", concepts, ctx)
        tr.count("fca.concepts.concepts", len(cs))
        co = tr.call("fca.concept_order", concept_order, cs)
        tr.count("fca.concept_order.cells", len(cs) ** 2)
        chosen = tr.call("fca.filter_ideal", filter_ideal, co, selectors, ideal)
        dot = tr.call("dot.bipartite_dot", bipartite_dot, ctx)
        tr.count("dot.bytes", len(dot.text))
        return cs, co, chosen, dot

    def check(out, rng):
        cs, co, chosen, dot = out
        return [
            ("fca.concepts", checks.check_concepts(inc, objects, attributes, cs, rng)),
            ("fca.concept_order", checks.check_concept_order(cs, objects, co, rng)),
            ("fca.filter_ideal", checks.check_filter(
                cs, objects, attributes, inc, selectors, ideal, chosen)),
            ("dot.bipartite_dot", checks.check_bipartite(inc, objects, attributes, dot.text)),
        ]

    return Analysis(label, run, check)


def context(rng, n_objects, n_attributes, concepts_near, pool):
    inc = inputs.context_near(rng, n_objects, n_attributes, 0.3, concepts_near, pool)
    return FormalContext(
        inputs.labels("o", n_objects), inputs.labels("m", n_attributes), inc
    )


def dense_fault_network():
    """Two dense slices at n=300 where uint8 witness counts reach 256.

    Fixed, not drawn from the run's seed, so the same products fail on
    every run.
    """
    rng = np.random.default_rng(2)
    return network("AB", inputs.random_slices(rng, 300, 2, 0.9))


def wide(rng, quick):
    """Hundreds of actors, one pass each, over every actor-count layer."""
    q = quick
    g20 = fixtures.g20()
    out = [fca_analysis("g20", g20, ["G7", "BRICS"], True)]
    for n, p in ((40, 0.2),) if q else ((400, 0.05), (450, 0.04)):
        out.append(census_analysis(f"census-n{n}", network("ABC", inputs.random_slices(rng, n, 3, p))))
    for n, p in ((40, 0.1), (30, 0.5)) if q else ((512, 0.02), (240, 0.5)):
        out.append(compose_analysis(f"compose-n{n}-p{p}", network("AB", inputs.random_slices(rng, n, 2, p))))
    for n, p in ((40, 0.1), (30, 0.5)) if q else ((300, 0.03), (240, 0.5)):
        out.append(box_analysis(f"box-n{n}-p{p}", network("AB", inputs.random_slices(rng, n, 2, p)), 2))
    fault = dense_fault_network()
    out.append(compose_analysis("fault-compose-n300", fault, UINT8_WRAP))
    out.append(box_analysis("fault-box-n300", fault, 2, UINT8_WRAP))
    n = 20 if q else 60
    net = network("ABC", inputs.random_slices(rng, n, 3, 0.05 if q else 0.01))
    clustering = {a: str(c) for a, c in zip(net.actors, rng.integers(0, 7, n))}
    out.append(positional_analysis(f"positional-n{n}", net, 2, clustering))
    for n, flips in ((12, 0), (14, 1)) if q else ((40, 0), (44, 1)):
        pos, neg = inputs.planted_camps(rng, n, 0.25, flips)
        out.append(signed_analysis(f"signed-n{n}-flips{flips}", pos, neg))
    for no, na, near in ((15, 8, 24),) if q else ((60, 25, 1000), (80, 20, 950)):
        ctx = context(rng, no, na, near, 5 if q else 20)
        out.append(fca_analysis(f"fca-{no}x{na}", ctx, ["1", "2"], False))
    return out


WORKLOADS = {"algebra": algebra, "wide": wide}
