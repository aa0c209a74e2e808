"""Correctness checks computed apart from the library.

Each check either recomputes a result by another route (int64 witness
counts, per-pair bitmasks, lookup tables built from the semiring's own
tables, a signed 2-colouring) or tests a property the method must have. A
check returns None when the library's output passes, or a one-line
description of the first problem it found. Checks whose cost grows with the
square of an output's size look at a seeded sample of it: table cells,
extent pairs, or the rows of a large product. The checks make no BLAS call,
so no BLAS thread is left spinning into the next timed analysis.
"""

import itertools
import math
import re

import numpy as np

SAMPLE = 4000
ROWS = 64


def witnesses(a, b):
    """Exact witness counts of a boolean product, in int64."""
    return np.asarray(a, np.int64) @ np.asarray(b, np.int64)


def sample_rows(n, rng):
    """Every row of a small matrix, a seeded sample of ROWS rows of a large one."""
    return np.arange(n) if n <= ROWS else np.sort(rng.choice(n, ROWS, replace=False))


def bool_product(a, b):
    return witnesses(a, b) > 0


def letters_of(net):
    """A network's slices by name, as boolean arrays."""
    return {s.name: np.asarray(s.cells, bool) for s in net.slices}


def stack_of(net):
    """A network's slices as one slices x n x n boolean array."""
    return np.stack(list(letters_of(net).values()))


def word_image(letters, word):
    img = letters[word[0]]
    for name in word[1:]:
        img = bool_product(img, letters[name])
    return np.asarray(img, dtype=bool)


def level_images(letters, k, rows=None):
    """(word, image) for all words of length 1..k, by length, then by letter position.

    With rows, only those rows of each image are computed.
    """
    level = [((name,), np.asarray(m, bool)[rows if rows is not None else slice(None)])
             for name, m in letters.items()]
    for depth in range(k):
        yield from level
        if depth + 1 < k:
            level = [
                (w + (name,), bool_product(img, m))
                for w, img in level
                for name, m in letters.items()
            ]


def _bad(mask, what):
    n = int(np.count_nonzero(mask))
    return f"{n} wrong cells in {what}" if n else None


# ---------------------------------------------------------------- semigroup


def check_strings(letters, strings):
    names = list(letters)
    if list(strings.alphabet) != names:
        return f"alphabet {strings.alphabet} != {names}"
    keys = {}
    for i, (word, img) in enumerate(zip(strings.words, strings.images)):
        if not np.array_equal(word_image(letters, word), img):
            return f"image of {''.join(word)} is not the product of its letters"
        keys[np.asarray(img, bool).tobytes()] = i
    if len(keys) != strings.order:
        return "two representatives share an image"
    lengths = [len(w) for w in strings.words]
    if lengths != sorted(lengths):
        return "representatives are not in breadth-first order"
    for letter, idx in strings.generator_elements:
        if not np.array_equal(strings.images[idx], letters[letter]):
            return f"generator {letter} maps to the wrong element"
    for img in strings.images:
        for m in letters.values():
            if bool_product(img, m).tobytes() not in keys:
                return "the string set is not closed under the generators"
    return None


def image_index(images):
    return {np.asarray(img, bool).tobytes(): i for i, img in enumerate(images)}


def check_table(strings, sg, rng):
    """Sampled table cells against exact products of the word images."""
    n = strings.order
    if sg.order != n or list(sg.st) != list(strings.st):
        return "table elements differ from the string set"
    index = image_index(strings.images)
    cells = itertools.product(range(n), repeat=2) if n * n <= SAMPLE else zip(
        rng.integers(0, n, SAMPLE), rng.integers(0, n, SAMPLE)
    )
    for i, j in cells:
        want = index.get(bool_product(strings.images[i], strings.images[j]).tobytes())
        if want is None or sg.product(int(i), int(j)) != want:
            return f"table cell ({strings.st[i]}, {strings.st[j]}) is wrong"
    return None


def containment(images):
    """leq[i, j] iff image i lies inside image j, from one product."""
    x = np.stack([np.asarray(m, bool).ravel() for m in images])
    return witnesses(x, ~x.T) == 0


def check_order(strings, po):
    if list(po.labels) != list(strings.st):
        return "order labels differ from the string set"
    return _bad(po.matrix != containment(strings.images), "the containment order")


def check_equations(letters, k, groups):
    by_image = {}
    for word, img in level_images(letters, k):
        by_image.setdefault(img.tobytes(), []).append("".join(word))
    want = {m[0]: m for m in by_image.values() if len(m) > 1}
    if list(groups) != list(want):
        return f"{len(groups)} equation classes, expected {len(want)}"
    for key, members in want.items():
        if list(groups[key]) != members:
            return f"equation class {key} has the wrong members"
    return None


_EDGE = re.compile(r'^\s*"([^"]*)" (->|--) "([^"]*)"(?: \[color=[^,]*, label="([^"]*)"\])?;$')


def dot_edges(text):
    out = set()
    for line in text.splitlines():
        m = _EDGE.match(line)
        if m:
            out.add((m.group(1), m.group(3)) if m.group(4) is None else (m.group(1), m.group(3), m.group(4)))
    return out


def check_hasse(labels, leq, text, rows):
    """Cover edges leaving the sampled rows' elements."""
    strict = leq & ~np.eye(len(leq), dtype=bool)
    c = strict[rows] & ~bool_product(strict[rows], strict)
    want = {(labels[rows[i]], labels[j]) for i, j in zip(*np.nonzero(c))}
    sources = {labels[i] for i in rows}
    got = {e for e in dot_edges(text) if e[0] in sources}
    if got != want:
        return f"hasse diagram has {len(got)} edges from sampled elements, expected {len(want)} covers"
    return None


def check_cayley(strings, letters, text):
    """Right multiplication by each generator, from the word images."""
    index = image_index(strings.images)
    want = set()
    for x, img in enumerate(strings.images):
        for letter, _ in strings.generator_elements:
            y = index[bool_product(img, letters[letter]).tobytes()]
            want.add((strings.st[x], strings.st[y], letter))
    got = dot_edges(text)
    if got != want:
        return f"cayley graph has {len(got)} edges, expected {len(want)}"
    return None


# ------------------------------------------------------------ decomposition


def _class_firsts(v):
    """For each element, the first element of its class."""
    first = {}
    return np.array([first.setdefault(c, i) for i, c in enumerate(v)])


def substitution_ok(table, v):
    """x ~ y implies xg ~ yg and gx ~ gy, for a class vector v."""
    v = np.asarray(v)
    r = v[table]
    rep = _class_firsts(v)
    return bool((r == r[rep]).all() and (r == r[:, rep]).all())


def canonical(v):
    seen = {}
    return tuple(seen.setdefault(c, len(seen) + 1) for c in v)


def check_congruences(table, congruences):
    n = len(table)
    vectors = [tuple(c.vector) for c in congruences]
    if len(set(vectors)) != len(vectors):
        return "duplicate congruences"
    collapsed = np.eye(n, dtype=bool)
    for v in vectors:
        if len(v) != n or canonical(v) != v:
            return f"class vector {v} is not canonical"
        if not substitution_ok(table, v):
            return f"class vector {v} is not a congruence"
        a = np.asarray(v)
        collapsed |= a[:, None] == a[None, :]
    if not collapsed.all():
        return "some seed pair is collapsed by no returned congruence"
    return None


def check_pi_lattice(table, base, lattice):
    n = len(table)
    members = [m.matrix for m in lattice.members]
    if not np.array_equal(members[0], base):
        return "the first member is not the base order"
    if len({m.tobytes() for m in members}) != len(members):
        return "duplicate members"
    covered = base.copy()
    right = table.T            # right[s, x] = x * s
    for m in members:
        if not m.diagonal().all() or (base & ~m).any():
            return "a member is not reflexive or drops the base order"
        if (bool_product(m, m) & ~m).any():
            return "a member is not transitive"
        if (m[None] & ~m[right[:, :, None], right[:, None, :]]).any():
            return "a member is not compatible with right multiplication"
        if (m[None] & ~m[table[:, :, None], table[:, None, :]]).any():
            return "a member is not compatible with left multiplication"
        covered |= m
    if not covered.all():
        return "some seed pair lies in no member"
    return None


def check_quotient(table, st, red):
    v = np.asarray(red.vector)
    firsts = [list(red.vector).index(c) for c in range(1, int(v.max()) + 1)]
    reps = [st[i] for i in firsts]
    got = np.array(red.table, dtype=object)
    want = np.array(reps, dtype=object)[v[table] - 1]
    if (got[(v - 1)[:, None], (v - 1)[None, :]] != want).any():
        return f"quotient table of {tuple(red.vector)} is wrong"
    return None


def is_partial_order(m):
    m = np.asarray(m, bool)
    off = ~np.eye(len(m), dtype=bool)
    return bool(m.diagonal().all() and not (m & m.T & off).any()
                and not (bool_product(m, m) & ~m).any())


def check_reductions_cc(table, st, congruences, reductions):
    if [r.vector for r in reductions] != [c.vector for c in congruences]:
        return "cc reductions do not follow the congruences"
    for red in reductions:
        bad = check_quotient(table, st, red)
        if bad:
            return bad
    return None


def check_reductions_mca(table, st, reductions):
    for red in reductions:
        if not substitution_ok(table, red.vector):
            return f"mca classes {tuple(red.vector)} are not a congruence"
        bad = check_quotient(table, st, red)
        if bad:
            return bad
        if red.order is None or not is_partial_order(red.order.matrix):
            return f"mca order of {tuple(red.vector)} is not a partial order"
    return None


# ------------------------------------------------------------------ netcore


def check_product(want_rows, got, rows, what):
    return _bad(want_rows != got[rows], f"sampled rows of {what}")


def check_box(letters, k, box, rows):
    labels = []
    wrong = 0
    if box.depth != sum(len(letters) ** d for d in range(1, k + 1)):
        return f"box holds {box.depth} words"
    for (word, img), got in zip(level_images(letters, k, rows), box.slices):
        labels.append("".join(word))
        wrong += int(np.count_nonzero(img != got[rows]))
    if labels != list(box.word_labels):
        return "box word labels are out of order"
    return f"{wrong} wrong cells in sampled rows of the relation box" if wrong else None


# ------------------------------------------------------------------ bundles

CLASSES = ("null", "asym", "recp", "tent", "txch", "mixd", "full")
STRONG = ("recp", "txch", "mixd", "full")


def pair_classes(stack):
    """Bundle class index of every pair i < j, from per-pair slice bitmasks."""
    r, n, _ = stack.shape
    bits = np.zeros((n, n), dtype=np.int64)
    for s in range(r):
        bits |= stack[s].astype(np.int64) << s
    iu = np.triu_indices(n, 1)
    fwd, bwd = bits[iu], bits.T[iu]
    full = (1 << r) - 1
    one_way = (fwd == 0) ^ (bwd == 0)
    single = np.bitwise_count(fwd | bwd) == 1
    cls = np.full(len(fwd), CLASSES.index("mixd"))
    cls[(fwd & bwd) == 0] = CLASSES.index("txch")
    cls[(fwd == bwd) & (np.bitwise_count(fwd) == 1)] = CLASSES.index("recp")
    cls[(fwd == full) & (bwd == full)] = CLASSES.index("full")
    cls[one_way & single] = CLASSES.index("asym")
    cls[one_way & ~single] = CLASSES.index("tent")
    cls[(fwd == 0) & (bwd == 0)] = CLASSES.index("null")
    return iu, cls


def census_counts(stack):
    _, cls = pair_classes(stack)
    counts = np.bincount(cls, minlength=len(CLASSES))
    return {c: int(k) for c, k in zip(CLASSES, counts)}


def check_census(stack, census):
    want = census_counts(stack)
    if dict(census.counts) != want:
        return f"census {dict(census.counts)} != {want}"
    return None


def bundle_stats(stack):
    """(strong, weak, null, cohesion, reciprocity) from the census counts."""
    c = census_counts(stack)
    strong = sum(c[k] for k in STRONG)
    weak = c["asym"] + c["tent"]
    cohesion = weak / (2.0 * c["null"])
    return strong, weak, c["null"], cohesion, math.log((2.0 * strong / weak) / cohesion)


def check_stats(stack, stats):
    strong, weak, null, cohesion, reciprocity = bundle_stats(stack)
    if (stats.strong, stats.weak, stats.null) != (strong, weak, null):
        return "statistics use the wrong counts"
    if not (math.isclose(stats.cohesion, cohesion, rel_tol=1e-12)
            and math.isclose(stats.reciprocity, reciprocity, rel_tol=1e-12)):
        return "cohesion or reciprocity is wrong"
    return None


def relational_cells(stack, actors, wanted):
    """Actors and per-slice cells kept by a bond selection."""
    n = len(actors)
    iu, cls = pair_classes(stack)
    sel = np.isin(cls, [CLASSES.index(c) for c in wanted])
    keep = np.zeros((n, n), dtype=bool)
    keep[iu[0][sel], iu[1][sel]] = True
    keep |= keep.T
    idx = np.nonzero(keep.any(axis=1))[0]
    cells = [(stack[s] & keep)[np.ix_(idx, idx)] for s in range(len(stack))]
    return [actors[i] for i in idx], cells


def check_relsys(stack, actors, wanted, system):
    want_actors, cells = relational_cells(stack, actors, wanted)
    if list(system.actors) != want_actors:
        return f"relational system keeps {system.n} actors, expected {len(want_actors)}"
    for s, want in zip(system.slices, cells):
        if not np.array_equal(s.cells, want):
            return f"relational system slice {s.name} is wrong"
    return None


# --------------------------------------------------------------- positional


def transitive_closure(m):
    m = np.asarray(m, bool) | np.eye(len(m), dtype=bool)
    while True:
        nxt = m | bool_product(m, m)
        if np.array_equal(nxt, m):
            return m
        m = nxt


def check_cph(box_slices, po):
    box = np.stack(box_slices)            # depth x n x n
    n = box.shape[1]
    m = np.eye(n, dtype=bool)
    for ego in range(n):
        prof = box[:, ego, :]             # depth x n: slices where ego reaches j
        subset = ~(prof[:, :, None] & ~prof[:, None, :]).any(axis=0)
        m |= transitive_closure(prof.any(axis=0)[:, None] & subset)
    return _bad(po.matrix != transitive_closure(m), "the cumulated hierarchy")


def blocked_images(stack, actors, clustering):
    """Classes in order of first member, and every slice blocked as G'SG > 0
    with the class-indicator matrix G."""
    order = list(dict.fromkeys(str(clustering[a]) for a in actors))
    g = np.zeros((len(actors), len(order)), dtype=bool)
    for i, a in enumerate(actors):
        g[i, order.index(str(clustering[a]))] = True
    return order, [bool_product(bool_product(g.T, s), g) for s in stack]


def check_reduce(stack, actors, clustering, system):
    order, images = blocked_images(stack, actors, clustering)
    if list(system.class_labels) != order:
        return "classes are out of order"
    for want, img in zip(images, system.images):
        if not np.array_equal(want, img.cells):
            return f"blocked image {img.name} is wrong"
    return None


# ------------------------------------------------------------------- signed


def sign_letters(pos, neg):
    out = np.full(pos.shape, "o", dtype="<U1")
    out[pos & ~neg] = "p"
    out[neg & ~pos] = "n"
    out[pos & neg] = "a"
    return out


def symmetrised(letters):
    """Fuse both directions: any letter beats absence, a pure sign beats
    ambivalence, and opposite pure signs give ambivalence."""
    a, b = letters, letters.T
    out = np.where(a == "o", b, a)
    both = (a != "o") & (b != "o") & (a != b)
    return np.where(both, np.where(a == "a", b, np.where(b == "a", a, "a")), out)


class Lut:
    """Addition and multiplication of a semiring as code lookup tables."""

    def __init__(self, spec):
        self.carrier = list(spec.carrier)
        c = len(self.carrier)
        self.add = np.zeros((c, c), dtype=np.uint8)
        self.mul = np.zeros((c, c), dtype=np.uint8)
        for (x, y), z in spec.add_table.items():
            self.add[self.code(x), self.code(y)] = self.code(z)
        for (x, y), z in spec.mul_table.items():
            self.mul[self.code(x), self.code(y)] = self.code(z)
        self.zero = self.code(spec.zero)

    def code(self, letter):
        return self.carrier.index(letter)

    def encode(self, letters):
        out = np.zeros(letters.shape, dtype=np.uint8)
        for k, v in enumerate(self.carrier):
            out[letters == v] = k
        return out

    def product(self, a, b):
        acc = np.full(a.shape, self.zero, dtype=np.uint8)
        for l in range(a.shape[0]):
            acc = self.add[acc, self.mul[a[:, l, None], b[None, l, :]]]
        return acc


def check_powers(m_letters, spec, k, q):
    lut = Lut(spec)
    m = lut.encode(m_letters)
    acc, p = m, m
    for _ in range(1, k):
        p = lut.product(p, m)
        acc = lut.add[acc, p]
    return _bad(lut.encode(q.cells) != acc, f"{spec.mode} powers up to {k}")


def check_fixpoint(m_letters, spec, q):
    """q absorbs m and one more step: q = q + m and q = q + q*m."""
    lut = Lut(spec)
    m, c = lut.encode(m_letters), lut.encode(q.cells)
    if (lut.add[c, m] != c).any():
        return f"{spec.mode} closure does not contain the network"
    return _bad(lut.add[c, lut.product(c, m)] != c, f"the {spec.mode} fixpoint")


def two_colouring(sym):
    """Components of the symmetrised network with a Cartwright-Harary colouring.

    Returns (components, colour, conflict): conflict marks the components
    where some positive tie joins two colours, some negative tie joins one
    colour, or some tie is ambivalent.
    """
    n = len(sym)
    colour = np.full(n, -1)
    comps = []
    conflict = []
    for start in range(n):
        if colour[start] >= 0:
            continue
        colour[start] = 0
        comp, stack, bad = [start], [start], False
        while stack:
            i = stack.pop()
            for j in np.nonzero(sym[i] != "o")[0]:
                want = colour[i] if sym[i, j] == "p" else 1 - colour[i]
                bad |= sym[i, j] == "a"
                if colour[j] < 0:
                    colour[j] = want
                    comp.append(j)
                    stack.append(j)
                elif colour[j] != want:
                    bad = True
        comps.append(sorted(comp))
        conflict.append(bad)
    return comps, colour, conflict


def check_verdict(pos, neg, actors, verdict):
    comps, colour, conflict = two_colouring(symmetrised(sign_letters(pos, neg)))
    bad = [i for comp, c in zip(comps, conflict) if c for i in comp]
    if bad:
        want = ("imbalanced", actors[min(bad)], ())
    else:
        camps = [
            tuple(i for i in comp if colour[i] == c) for comp in comps for c in (0, 1)
        ]
        camps = sorted((g for g in camps if g), key=lambda g: g[0])
        want = ("balanced", None, tuple(tuple(actors[i] for i in g) for g in camps))
    got = (verdict.verdict, verdict.witness, tuple(verdict.groups))
    if got[:2] != want[:2] or (not bad and got[2] != want[2]):
        return f"verdict {got[:2]} != {want[:2]}"
    return None


# ---------------------------------------------------------------------- fca


def extent_matrix(cs, objects):
    pos = {g: i for i, g in enumerate(objects)}
    e = np.zeros((len(cs), len(objects)), dtype=bool)
    for k, c in enumerate(cs):
        e[k, [pos[g] for g in c.extent]] = True
    return e


def check_concepts(inc, objects, attributes, cs, rng):
    e = extent_matrix(cs, objects)
    apos = {m: j for j, m in enumerate(attributes)}
    keys = {row.tobytes(): k for k, row in enumerate(e)}
    if len(keys) != len(cs):
        return "duplicate concept extents"
    for k, c in enumerate(cs):
        intent = np.zeros(len(attributes), dtype=bool)
        intent[[apos[m] for m in c.intent]] = True
        if not np.array_equal(inc[e[k]].all(axis=0), intent):
            return f"intent of concept {c.index} is not the derivation of its extent"
        if not np.array_equal(inc[:, intent].all(axis=1), e[k]):
            return f"concept {c.index} is not closed"
    for col in [inc[:, j] for j in range(len(attributes))] + [np.ones(len(objects), bool)]:
        if col.tobytes() not in keys:
            return "an attribute extent or the full object set is missing"
    n = len(cs)
    for i, j in zip(rng.integers(0, n, SAMPLE), rng.integers(0, n, SAMPLE)):
        if (e[i] & e[j]).tobytes() not in keys:
            return "the extents are not closed under intersection"
    for g in range(len(objects)):
        closure = inc[:, inc[g]].all(axis=1)
        if objects[g] not in cs[keys[closure.tobytes()]].reduced_objects:
            return f"object {objects[g]} labels the wrong concept"
    for j, m in enumerate(attributes):
        if m not in cs[keys[inc[:, j].tobytes()]].reduced_attributes:
            return f"attribute {m} labels the wrong concept"
    if sum(len(c.reduced_objects) for c in cs) != len(objects) or sum(
        len(c.reduced_attributes) for c in cs
    ) != len(attributes):
        return "reduced labels are not one per object and attribute"
    return None


def check_concept_order(cs, objects, co, rng):
    if list(co.labels) != [f"c{c.index}" for c in cs]:
        return "concept order labels are wrong"
    e = extent_matrix(cs, objects)
    rows = sample_rows(len(cs), rng)
    return _bad(co.matrix[rows] != (witnesses(e[rows], ~e.T) == 0), "sampled rows of the concept order")


def check_filter(cs, objects, attributes, inc, selectors, ideal, got):
    e = extent_matrix(cs, objects)
    keys = {row.tobytes(): k for k, row in enumerate(e)}
    chosen = set()
    for sel in selectors:
        k = int(sel) - 1 if sel.isdigit() else keys[inc[:, attributes.index(sel)].tobytes()]
        below = ~(e & ~e[k]).any(axis=1) if ideal else ~(e[k] & ~e).any(axis=1)
        chosen.update(np.nonzero(below)[0].tolist())
    want = [cs[k].index for k in sorted(chosen)]
    if list(got) != want:
        return f"{'ideal' if ideal else 'filter'} of {selectors} is wrong"
    return None


def check_bipartite(inc, objects, attributes, text):
    want = {(objects[i], attributes[j]) for i, j in zip(*np.nonzero(inc))}
    got = dot_edges(text)
    if got != want:
        return f"bipartite drawing has {len(got)} edges, expected {len(want)}"
    return None
