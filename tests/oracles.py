"""Brute-force reference implementations used to cross-check the package.

Everything here works on plain Python data (tuples, sets, frozensets), or on
numpy boolean matrices where the package's own results are matrices, and is
written for clarity over speed. None of it imports the package under test.
"""

import itertools
from math import comb

import numpy as np


# ---------------------------------------------------------------------------
# boolean relation algebra


def compose_sets(n, a, b):
    """Compose two relations given as sets of (i, j) index pairs."""
    out = set()
    for i, k in a:
        for k2, j in b:
            if k == k2:
                out.add((i, j))
    return out


def witness_product(a, b):
    """Boolean matrix product: (i, j) is set iff its int64 witness count is positive."""
    return (np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)) > 0


def transitive_closure(n, rel):
    """Reflexive-transitive closure of a relation given as a pair set."""
    closed = set(rel) | {(i, i) for i in range(n)}
    changed = True
    while changed:
        changed = False
        for (i, j), (j2, k) in itertools.product(list(closed), repeat=2):
            if j == j2 and (i, k) not in closed:
                closed.add((i, k))
                changed = True
    return closed


def reachable(n, edges):
    """Reachability matrix of a DAG edge set, as a pair set (irreflexive)."""
    reach = set(edges)
    changed = True
    while changed:
        changed = False
        for (i, j), (j2, k) in itertools.product(list(reach), repeat=2):
            if j == j2 and (i, k) not in reach:
                reach.add((i, k))
                changed = True
    return reach


def union_find(n, edges):
    """Each of 0..n-1's least class-mate in the partition joining each edge's ends."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    return [find(i) for i in range(n)]


def weak_components(n, edges):
    """The classes of union_find as ascending lists, by their least member."""
    least = union_find(n, edges)
    return [[i for i in range(n) if least[i] == r] for r in range(n) if least[r] == r]


# ---------------------------------------------------------------------------
# dyad classification

STRONG = {"recp", "txch", "mixd", "full"}
WEAK = {"asym", "tent"}


def classify_dyad_sets(forward, backward, nslices):
    """Classify one unordered pair from its two directed slice-name sets.

    Decision order follows the class definitions, written as an explicit
    decision list so it cannot share bugs with a table-driven implementation.
    """
    forward, backward = frozenset(forward), frozenset(backward)
    if not forward and not backward:
        return "null"
    if not forward or not backward:
        lone = forward or backward
        return "asym" if len(lone) == 1 else "tent"
    if len(forward) == len(backward) == nslices == len(forward | backward):
        return "full"
    if forward == backward and len(forward) == 1:
        return "recp"
    if not (forward & backward):
        return "txch"
    return "mixd"


def census_counts(n, slice_ties):
    """Census over all unordered pairs. slice_ties: {name: set of (i, j)}."""
    counts = {c: 0 for c in ("null", "asym", "recp", "tent", "txch", "mixd", "full")}
    names = list(slice_ties)
    for i, j in itertools.combinations(range(n), 2):
        fwd = {s for s in names if (i, j) in slice_ties[s]}
        bwd = {s for s in names if (j, i) in slice_ties[s]}
        counts[classify_dyad_sets(fwd, bwd, len(names))] += 1
    assert sum(counts.values()) == comb(n, 2)
    return counts


# The package classifies every pair at once from slice counts; this is the
# per-pair walk relational_system made before, over index pairs and
# name-keyed boolean matrices.


def relational_system(actors, slices, wanted):
    """Ties on dyads whose class is wanted, over the actors keeping one.

    slices: {name: n x n boolean matrix}. Returns (actors, {name: matrix}).
    """
    names = list(slices)
    n, r = len(actors), len(names)
    keep = {name: np.zeros((n, n), dtype=bool) for name in names}
    involved = set()
    for i, j in itertools.combinations(range(n), 2):
        fwd = frozenset(s for s in names if slices[s][i, j])
        bwd = frozenset(s for s in names if slices[s][j, i])
        if classify_dyad_sets(fwd, bwd, r) not in wanted:
            continue
        for name in fwd:
            keep[name][i, j] = True
        for name in bwd:
            keep[name][j, i] = True
        involved.update((i, j))
    idx = np.asarray(sorted(involved), dtype=int)
    return [actors[i] for i in idx], {s: keep[s][np.ix_(idx, idx)] for s in names}


# ---------------------------------------------------------------------------
# multiplication table and containment order, one cell at a time
#
# The package derives the table from the right Cayley graph and the order from
# one boolean product; these form every product and comparison separately.


def string_closure(letters):
    """(st, generator elements, right Cayley graph) of the breadth-first closure
    of (name, matrix) letters.

    Every image, in discovery order, is multiplied by every letter in turn; a
    product with a new image becomes a representative named by its word, and
    right[i][a] is the index of image i times letter a.
    """
    st, images, seen, gens = [], [], {}, []
    for name, cells in letters:
        if cells.tobytes() not in seen:
            seen[cells.tobytes()] = len(st)
            st.append(name)
            images.append(cells)
        gens.append((name, seen[cells.tobytes()]))
    right = []
    i = 0
    while i < len(images):
        right.append([])
        for name, cells in letters:
            img = images[i] @ cells
            if img.tobytes() not in seen:
                seen[img.tobytes()] = len(st)
                st.append(st[i] + name)
                images.append(img)
            right[i].append(seen[img.tobytes()])
        i += 1
    return st, gens, right


def word_images(letters, k):
    """(word, image) for every word of length 1..k, by length, then letter:
    every word of one length times every letter, one product each."""
    level = [((name,), cells) for name, cells in letters]
    for depth in range(k):
        if depth:
            level = [
                (word + (name,), img @ cells)
                for word, img in level
                for name, cells in letters
            ]
        yield from level


def semigroup_table(images):
    """0-based index table: each product's image looked up among the images."""
    by_key = {img.tobytes(): i for i, img in enumerate(images)}
    n = len(images)
    idx = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(n):
            key = (np.asarray(images[i], dtype=bool) @ np.asarray(images[j], dtype=bool)).tobytes()
            idx[i, j] = by_key[key]
    return idx


def containment_order(images):
    """M[i, j] = 1 iff image i lies inside image j."""
    n = len(images)
    m = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            m[i, j] = not (images[i] & ~images[j]).any()
    return m


# ---------------------------------------------------------------------------
# semigroup congruences


def set_partitions(items):
    """Every partition of a sequence, as lists of disjoint index sets."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [part[k] | {first}] + part[k + 1:]
        yield [{first}] + part


def is_congruence(table, blocks):
    """Substitution-property check of a partition against a 0-based table."""
    n = len(table)
    cls = [None] * n
    for b, block in enumerate(blocks):
        for x in block:
            cls[x] = b
    for x in range(n):
        for y in range(n):
            if cls[x] != cls[y]:
                continue
            for z in range(n):
                if cls[table[x][z]] != cls[table[y][z]]:
                    return False
                if cls[table[z][x]] != cls[table[z][y]]:
                    return False
    return True


def all_congruences(table):
    """Every congruence partition of a small semigroup, as class tuples."""
    n = len(table)
    found = set()
    for blocks in set_partitions(range(n)):
        if is_congruence(table, blocks):
            found.add(partition_tuple(blocks, n))
    return found


def quotient(table, labels, vector):
    """The quotient table by label of each class's first member, or None if no congruence.

    Cell by cell: the class of the product of two first members, named by
    that class's own first member.
    """
    first = {}
    for x, c in enumerate(vector):
        first.setdefault(c, x)
    if not is_congruence(table, [{x for x in range(len(table)) if vector[x] == c} for c in first]):
        return None
    reps = sorted(first.values())
    return [[labels[first[vector[table[x][y]]]] for y in reps] for x in reps]


def partition_tuple(blocks, n):
    """Canonical class vector: classes numbered by first occurrence."""
    cls = [None] * n
    for b, block in enumerate(blocks):
        for x in block:
            cls[x] = b
    seen = {}
    out = []
    for c in cls:
        if c not in seen:
            seen[c] = len(seen) + 1
        out.append(seen[c])
    return tuple(out)


# ---------------------------------------------------------------------------
# congruence and pi-relation search, closing under every element
#
# These close each relation under multiplication by all N elements, rescanning
# every related pair on each pass. The package closes under the generator
# translations instead and must find the same relations in the same order.


def _substitution_closure(table, assign):
    """Coarsen until x ~ y forces xg ~ yg and gx ~ gy for every g."""
    n = len(table)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            return True
        return False

    for i in range(n):
        union(i, assign[i])
    changed = True
    while changed:
        changed = False
        for x in range(n):
            for y in range(x + 1, n):
                if find(x) != find(y):
                    continue
                for g in range(n):
                    if union(table[x][g], table[y][g]):
                        changed = True
                    if union(table[g][x], table[g][y]):
                        changed = True
    return [find(i) for i in range(n)]


def _quotient_merge(table, assign):
    """Merge classes whose quotient rows and columns are identical."""
    n = len(table)
    classes = sorted(set(assign))
    cix = {c: i for i, c in enumerate(classes)}
    q = [[cix[assign[table[x][y]]] for y in _reps(assign, classes)] for x in _reps(assign, classes)]
    m = len(classes)
    merged = dict(enumerate(range(m)))
    did = False
    for u in range(m):
        for v in range(u + 1, m):
            same_rows = all(q[u][w] == q[v][w] for w in range(m))
            same_cols = all(q[w][u] == q[w][v] for w in range(m))
            if same_rows and same_cols:
                merged[v] = merged[u]
                did = True
    if not did:
        return assign, False
    return [classes[merged[cix[assign[x]]]] for x in range(n)], True


def _reps(assign, classes):
    firsts = []
    for c in classes:
        firsts.append(assign.index(c))
    return firsts


def _pair_congruence(table, a, b):
    n = len(table)
    assign = list(range(n))
    assign[b] = a
    while True:
        assign = _substitution_closure(table, assign)
        assign, again = _quotient_merge(table, assign)
        if not again:
            break
    return _canonical(assign)


def _canonical(assign):
    """Renumber class ids 1.. by first occurrence."""
    seen = {}
    out = []
    for a in assign:
        if a not in seen:
            seen[a] = len(seen) + 1
        out.append(seen[a])
    return tuple(out)


def congruence_vectors(table):
    """Class vectors of find_congruences: every pair seeded, unique, finest first."""
    n = len(table)
    found = []
    for a in range(n):
        for b in range(a + 1, n):
            found.append(_pair_congruence(table, a, b))
    out = []
    for v in found:
        if v not in out:
            out.append(v)
    out.sort(key=lambda v: (-max(v), v))
    return out


def _pi_close(table, base):
    """Transitive + two-sided multiplicative closure of a relation."""
    n = len(table)
    m = base.copy()
    np.fill_diagonal(m, True)
    while True:
        nxt = m | ((m.astype(np.uint8) @ m.astype(np.uint8)) > 0)
        rows, cols = np.nonzero(nxt)
        add = []
        for x, y in zip(rows, cols):
            for s in range(n):
                if not nxt[table[x][s]][table[y][s]]:
                    add.append((table[x][s], table[y][s]))
                if not nxt[table[s][x]][table[s][y]]:
                    add.append((table[s][x], table[s][y]))
        for x, y in add:
            nxt[x, y] = True
        if np.array_equal(nxt, m):
            return m
        m = nxt


def pi_members(table, base):
    """(seed, matrix) of each factorize member: the order, then new closures."""
    n = len(table)
    members = [(None, base)]
    seen = {base.tobytes()}
    for x in range(n):
        for y in range(n):
            if x == y or base[x, y]:
                continue
            seeded = base.copy()
            seeded[x, y] = True
            q = _pi_close(table, seeded)
            key = q.tobytes()
            if key not in seen:
                seen.add(key)
                members.append(((x, y), q))
    return members


# The package reads atoms and meet complements off one inclusion matrix over
# the flattened members, and partitions by one argmax; these compare members
# pair by pair. Members are boolean matrices; results are member positions.


def _contains(a, b):
    return bool((b <= a).all())


def pi_inclusion(members, rows=None):
    """[i][j] for each i in rows (all by default): member i lies inside member j."""
    rows = range(len(members)) if rows is None else rows
    return [[_contains(other, members[i]) for other in members] for i in rows]


def pi_atoms(members, base):
    """Inclusion-minimal members strictly above the base order."""
    out = []
    for i, m in enumerate(members):
        if np.array_equal(m, base):
            continue
        minimal = True
        for j, other in enumerate(members):
            if j == i or np.array_equal(other, base):
                continue
            if _contains(m, other) and not _contains(other, m):
                minimal = False
                break
        if minimal:
            out.append(i)
    return out


def pi_meet_complements(members, atom):
    """Maximal members that do not contain the given atom."""
    non = [i for i, m in enumerate(members) if not _contains(m, atom)]
    out = []
    for i in non:
        m = members[i]
        if not any(
            j != i and _contains(members[j], m) and not _contains(m, members[j])
            for j in non
        ):
            out.append(i)
    return out


def pi_designated_complement(members, atom):
    """The largest meet complement, ties broken by cell pattern."""
    mcs = pi_meet_complements(members, atom)
    if not mcs:
        return None
    return sorted(mcs, key=lambda i: (-int(members[i].sum()), members[i].tobytes()))[0]


def mutual_partition(matrix):
    """Classes of mutually related elements, canonically numbered."""
    mutual = matrix & matrix.T
    n = len(matrix)
    assign = list(range(n))
    for i in range(n):
        for j in range(i):
            if mutual[i, j]:
                assign[i] = assign[j]
                break
    return _canonical(assign)


# ---------------------------------------------------------------------------
# signed walks


def fold_walk(mul, valences):
    acc = valences[0]
    for v in valences[1:]:
        acc = mul[(acc, v)]
    return acc


def walk_valence_sum(n, cells, add, mul, k):
    """Fold every walk of length 1..k and add-reduce per endpoint pair.

    cells: dict (i, j) -> valence. Walks never traverse absent ('o') edges
    because 'o' annihilates under mul; skipping them changes nothing.
    """
    edges = {(i, j): v for (i, j), v in cells.items() if v != "o"}
    totals = {}
    walks = [[((i, j), v)] for (i, j), v in edges.items()]
    for step in range(1, k + 1):
        for walk in walks:
            start = walk[0][0][0]
            end = walk[-1][0][1]
            val = fold_walk(mul, [v for _, v in walk])
            key = (start, end)
            totals[key] = add[(totals[key], val)] if key in totals else val
        if step == k:
            break
        walks = [
            walk + [((a, b), v)]
            for walk in walks
            for (a, b), v in edges.items()
            if walk[-1][0][1] == a
        ]
    grid = [["o"] * n for _ in range(n)]
    for (i, j), v in totals.items():
        grid[i][j] = v
    return grid


# Signed matrix algebra one cell at a time, with a spec's letter tables.
# The package encodes letters and evaluates through lookup arrays; these
# compute every sum, product and fused dyad separately.


def _matmul(a, b, spec):
    n = a.shape[0]
    out = np.full((n, n), spec.zero, dtype="<U1")
    for i in range(n):
        for j in range(n):
            acc = spec.zero
            for l in range(n):
                acc = spec.add(acc, spec.mul(a[i, l], b[l, j]))
            out[i, j] = acc
    return out


def _cellwise_add(a, b, spec):
    n = a.shape[0]
    out = np.empty((n, n), dtype="<U1")
    for i in range(n):
        for j in range(n):
            out[i, j] = spec.add(a[i, j], b[i, j])
    return out


_FUSE = {
    ("p", "n"): "a",
    ("p", "a"): "p",
    ("n", "a"): "n",
    ("p", "q"): "a",
    ("n", "q"): "a",
    ("a", "q"): "a",
}


def _fuse(x, y):
    if x == y:
        return x
    if x == "o":
        return y
    if y == "o":
        return x
    return _FUSE.get((x, y)) or _FUSE[(y, x)]


def symmetric_cells(cells):
    """Each dyad's two directions fused into one letter, cell by cell."""
    n = cells.shape[0]
    out = np.full((n, n), "o", dtype="<U1")
    for i in range(n):
        for j in range(n):
            out[i, j] = _fuse(cells[i, j], cells[j, i])
    return out


def power_sum(m, spec, k):
    """m + m^2 + ... + m^k, one power at a time."""
    q = m.copy()
    p = m
    for _ in range(1, k):
        p = _matmul(p, m, spec)
        q = _cellwise_add(q, p, spec)
    return q


def closure_cells(m, spec, limit):
    """q <- q + q*m from q = m until stable; None if not within `limit` steps."""
    q = m
    for _ in range(limit):
        nxt = _cellwise_add(q, _matmul(q, m, spec), spec)
        if (nxt == q).all():
            return q
        q = nxt
    return None


# Signed matrix algebra one middle actor at a time: each product sums, over
# every middle actor l, the whole-array gather of a[:, l] * b[l, :]. Letters
# are coded by their position in the carrier, and the spec's letter tables
# become lookup arrays over those codes.


def _lookup(spec):
    pos = {v: i for i, v in enumerate(spec.carrier)}
    add, mul = (
        np.array([[pos[t[(x, y)]] for y in spec.carrier] for x in spec.carrier], dtype=np.uint8)
        for t in (spec.add_table, spec.mul_table)
    )
    return pos, add, mul


def _gather(a, b, zero, add, mul):
    acc = np.full(a.shape, zero, dtype=np.uint8)
    for l in range(len(a)):
        acc = add[acc, mul[a[:, l, None], b[None, l, :]]]
    return acc


def gather_product(a, b, spec):
    """The semiring product of two letter matrices."""
    pos, add, mul = _lookup(spec)
    code = np.vectorize(pos.get, otypes=[np.uint8])
    return np.array(spec.carrier)[_gather(code(a), code(b), pos[spec.zero], add, mul)]


def gather_walk_sums(m, spec, k=None):
    """m + m^2 + ... + m^k for a letter matrix, by q <- q + q*m from q = m;
    with k None, until q is stable (which a finite idempotent sum reaches)."""
    pos, add, mul = _lookup(spec)
    m = np.vectorize(pos.get, otypes=[np.uint8])(m)
    q = m
    for _ in itertools.count() if k is None else range(k - 1):
        nxt = add[q, _gather(q, m, pos[spec.zero], add, mul)]
        if np.array_equal(nxt, q):
            break
        q = nxt
    return np.array(spec.carrier)[q]


# ---------------------------------------------------------------------------
# formal concepts


def all_concepts(incidence):
    """Every maximal rectangle of a small context, by object-subset scan.

    incidence: list of rows of 0/1. Returns a set of (extent, intent)
    frozenset pairs over row/column indices.
    """
    nobj = len(incidence)
    natt = len(incidence[0]) if nobj else 0

    def common_attrs(objs):
        return frozenset(
            m for m in range(natt) if all(incidence[g][m] for g in objs)
        )

    def common_objs(atts):
        return frozenset(
            g for g in range(nobj) if all(incidence[g][m] for m in atts)
        )

    out = set()
    for r in range(nobj + 1):
        for objs in itertools.combinations(range(nobj), r):
            intent = common_attrs(frozenset(objs))
            extent = common_objs(intent)
            out.add((extent, intent))
    return out


# The package keeps a set index beside its extent list and takes the order
# from one boolean product; these scan the list and compare every pair.


def concept_extents(incidence):
    """Extents as index frozensets, in the pinned discovery order: column
    extents, then each listed extent and each column, then the full set.

    incidence: a boolean objects x attributes array (either count may be 0).
    """
    nobj, natt = np.shape(incidence)
    cols = [frozenset(g for g in range(nobj) if incidence[g][m]) for m in range(natt)]
    extents = []
    for e in cols:
        if e not in extents:
            extents.append(e)
    i = 0
    while i < len(extents):
        for e in cols:
            inter = extents[i] & e
            if inter not in extents:
                extents.append(inter)
        i += 1
    full = frozenset(range(nobj))
    if full not in extents:
        extents.append(full)
    return extents


def concept_order(extents):
    """c <= d when the extent of c sits inside d's, one pair at a time."""
    n = len(extents)
    m = np.zeros((n, n), dtype=bool)
    for i, a in enumerate(extents):
        for j, b in enumerate(extents):
            m[i, j] = a <= b
    return m


# The package takes intents from one boolean product over its extent matrix
# and reduced labels from row lookups; these derive them one concept and one
# object at a time.


def concept_labels(incidence, extents):
    """(intent, reduced objects, reduced attributes) of each listed extent, as
    index frozensets and ascending index tuples."""
    nobj, natt = np.shape(incidence)

    def derive(objs):
        return frozenset(m for m in range(natt) if all(incidence[g][m] for g in objs))

    def extent(atts):
        return frozenset(g for g in range(nobj) if all(incidence[g][m] for m in atts))

    reduced_objects = [[] for _ in extents]
    for g in range(nobj):
        reduced_objects[extents.index(extent(derive([g])))].append(g)
    reduced_attributes = [[] for _ in extents]
    for m in range(natt):
        reduced_attributes[extents.index(extent([m]))].append(m)
    return [
        (derive(e), tuple(objs), tuple(atts))
        for e, objs, atts in zip(extents, reduced_objects, reduced_attributes)
    ]


# ---------------------------------------------------------------------------
# relation planes


def plane_of(box_cells, nactors, nslices, actor):
    """Actor's plane as a set of (slice, alter) coordinates with a tie."""
    return {
        (s, a)
        for s in range(nslices)
        for a in range(nactors)
        if box_cells[s][actor][a]
    }


def person_order(box_cells, nactors, nslices, ego):
    """Profile-containment pairs perceived by one actor (j <= l)."""
    profiles = [
        frozenset(s for s in range(nslices) if box_cells[s][ego][j])
        for j in range(nactors)
    ]
    return {
        (j, l)
        for j in range(nactors)
        for l in range(nactors)
        if profiles[j] and profiles[j] <= profiles[l]
    }


def cumulated_order(box_cells, nactors, nslices):
    """Union of every actor's perceived order, transitively closed."""
    pairs = {(i, i) for i in range(nactors)}
    for ego in range(nactors):
        pairs |= person_order(box_cells, nactors, nslices, ego)
    return transitive_closure(nactors, pairs)
