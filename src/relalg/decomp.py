"""Congruences, compatible quasi-orders, and quotient reductions.

A congruence partitions the elements of a multiplication table so that
products respect the classes; factoring by one yields a smaller table that
preserves the algebra of the original. When the elements also carry a
partial order, the compatible quasi-orders extending it play the same role
for ordered structures: their minimal nontrivial members (atoms) and the
maximal ones avoiding each atom (meet complements) mark the natural seams
along which the structure decomposes.

Both searches close a relation under multiplication. Every element is a
product of the generators, so closing under x -> xg and x -> gx for each
generator g closes under every element: a table that carries its
"generators" is closed under 2|A| translations. Without them, or when they
do not generate the table, every element serves as a generator; the result
is the same, only slower. The same generators check that the table is
associative, which both searches assume. A table's translations are found
once and kept while the table lives.

Both searches close their seed pairs in one pass over a pair graph, whose
node (x, y) has an edge to each translate (f(x), f(y)): unordered pairs for
congruences, kept as each element's least class-mate (n int32), ordered
pairs for quasi-orders, kept as n x n matrices. A pair's result contains
the results of the pairs it reaches, so it is settled once per strongly
connected component, and a level of components at a time.

A class vector is read in one place, `_first_members`: each element's least
class-mate, from class ids of any kind, checked for the substitution
property. `is_congruence` and every quotient go through it. A quotient's
vector is the canonical renumbering (classes 1.. by first occurrence), and
its table names each product by its class's least member.
"""

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DecompositionTooLargeError, ValidationError, read_cap
from .netcore import _BLOCK_CELLS, classes, containment
from .semigroup import Poset, transitive_closure

# Bytes a search may hold: the pair graph's gather, then one result for each
# component that may need its own close (most do, on large tables): n int32
# for a congruence, n x n bools for a quasi-order.
DEFAULT_MAX_DECOMP_BYTES = 2**30
_EDGE_BYTES = 12   # the gather's peak per edge entry: int32 indices, targets, their sort

# Each table's translations; a Semigroup does not change once built.
_TRANSLATIONS = weakref.WeakKeyDictionary()


def _canonical(first):
    """Class ids 1.. by first occurrence, from each element's least class-mate."""
    return tuple(np.cumsum(first == np.arange(len(first)))[first].tolist())


@dataclass(frozen=True)
class Congruence:
    """A class vector over the elements of a table (1-based and canonical from find_congruences)."""

    labels: tuple
    vector: tuple

    @property
    def n_classes(self):
        return len(set(self.vector))

    def classes(self):
        out = {}
        for lbl, c in zip(self.labels, self.vector):
            out.setdefault(c, []).append(lbl)
        return out


def _translations(sg):
    """Right maps x -> xg, then left maps x -> gx, one row per generator g.

    The generators are the table's own when they generate it, else every
    element. Light's test checks over them that the table is associative:
    (xg)y = x(gy) for every generator g gives it for every element, since
    the elements that pass are closed under products.
    """
    if sg in _TRANSLATIONS:
        return _TRANSLATIONS[sg]
    n = sg.order
    t = sg._idx
    gens = sorted({g for _, g in sg.generator_elements()})
    reached = np.zeros(n, dtype=bool)
    reached[gens] = True
    frontier = np.asarray(gens, dtype=int)
    while frontier.size:
        step = np.zeros(n, dtype=bool)
        step[t[np.ix_(frontier, gens)]] = True
        frontier = np.flatnonzero(step & ~reached)
        reached[frontier] = True
    if not reached.all():
        gens = list(range(n))
    for g in gens:
        bad = np.argwhere(t[t[:, g]] != t[:, t[g]])
        if bad.size:
            x, y = (sg.st[i] for i in bad[0])
            raise ValidationError(
                f"table is not associative: ({x} {sg.st[g]}) {y} != {x} ({sg.st[g]} {y})"
            )
    _TRANSLATIONS[sg] = t, np.concatenate([t[:, gens].T, t[gens, :]], dtype=np.int32)
    return _TRANSLATIONS[sg]


def _components(succ):
    """Strongly connected components by Tarjan's algorithm, without recursion.

    succ[v] lists the successors of node v. Components are numbered as
    Tarjan emits them, each after every component it reaches: sinks first.
    """
    size = len(succ)
    succ = succ + [range(size)]   # one more node, a root that reaches every node
    # a node's index is its position on the stack while it is there
    index, low, comp = [-1] * size + [0], [0] * (size + 1), [-1] * (size + 1)
    stack, work, found = [size], [(size, iter(succ[size]))], 0
    while work:
        v, edges = work[-1]
        for w in edges:
            if index[w] < 0:
                work.append((w, iter(succ[w])))
                index[w] = low[w] = len(stack)
                stack.append(w)
                break
            if comp[w] < 0:
                low[v] = min(low[v], index[w])
        else:
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                for w in stack[index[v]:]:
                    comp[w] = found
                del stack[index[v]:]
                found += 1
    return comp[:size]


def _distinct(a):
    """The distinct values of an int array, ascending."""
    a = np.sort(a)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _budget(need, cap):
    if need > cap:
        raise DecompositionTooLargeError(need, cap)


def _pair_pass(maps, start, ids, xs, ys, close, holds, max_bytes=None):
    """Each seed pair's result, in one pass over the pair graph.

    Node i is the pair (xs[i], ys[i]), with an edge to each translate
    (f(x), f(y)); `ids` maps a pair to its node, or to -1 where `start`, the
    least result, holds it. A pair's result holds those of the pairs it
    reaches, so the pairs of a strongly connected component share one: a
    result q below with holds(q, x, y) for one of its pairs (q then holds
    the component's result and lies inside it), or else the least result
    above its part, which `close` returns for a list of parts (a part is a
    component's nodes and the results below it, and holds its translates),
    a level of components at a time, in blocks of _BLOCK_CELLS // n^2 parts.
    Returns the distinct results and each node's index among them.

    Raises DecompositionTooLargeError when the gather, or once they are known
    the components at start.nbytes each, would exceed the cap: max_bytes,
    else RELALG_MAX_DECOMP_BYTES, else DEFAULT_MAX_DECOMP_BYTES.
    """
    n, size = len(start), len(xs)
    cap = read_cap(max_bytes, "RELALG_MAX_DECOMP_BYTES", DEFAULT_MAX_DECOMP_BYTES)
    _budget(_EDGE_BYTES * size * len(maps), cap)
    succ = np.sort(ids[maps[:, xs], maps[:, ys]], axis=0)
    keep = (succ >= 0) & (succ != np.arange(size))   # no edges into start, no self-loops
    keep[1:] &= succ[1:] != succ[:-1]
    targets, counts = succ.T[keep.T], keep.sum(axis=0)
    del succ, keep   # k entries a node: large without generators
    edges, ends = memoryview(targets), np.cumsum(counts).tolist()   # views, not lists of ints
    comp = np.array(_components([edges[lo:hi] for lo, hi in zip([0] + ends, ends)]), dtype=int)
    count = int(comp.max(initial=-1)) + 1
    _budget(count * start.nbytes, cap)
    links = _distinct(comp[np.repeat(np.arange(size), counts)] * count + comp[targets])
    nodes = np.split(np.argsort(comp, kind="stable"), np.cumsum(np.bincount(comp))[:-1])
    level, lower = [0] * count, [[] for _ in range(count)]
    src, dst = np.divmod(links[links // count != links % count], count)
    for c, d in zip(src.tolist(), dst.tolist()):   # sinks first: d is settled before c
        level[c] = max(level[c], level[d] + 1)
        lower[c].append(d)
    levels = np.split(np.argsort(level, kind="stable"), np.cumsum(np.bincount(level))[:-1])

    block = max(1, _BLOCK_CELLS // (n * n))
    keys, found, result = {}, [], [0] * count
    for comps in levels:
        todo, parts = [], []
        for c in comps.tolist():
            below, x, y = {result[d] for d in lower[c]}, xs[nodes[c][0]], ys[nodes[c][0]]
            result[c] = next((r for r in below if holds(found[r], x, y)), None)
            if result[c] is None:
                todo.append(c)
                parts.append((nodes[c], [found[r] for r in below]))
        for lo in range(0, len(todo), block):
            for c, q in zip(todo[lo:lo + block], close(parts[lo:lo + block])):
                key = q.tobytes()
                result[c] = keys.setdefault(key, len(keys))
                if result[c] == len(found):
                    found.append(np.frombuffer(key, dtype=start.dtype).reshape(start.shape))
    return found, np.array(result, dtype=int)[comp]


def find_congruences(sg, max_bytes=None):
    """The distinct results of collapsing each pair of elements in turn.

    A pair's result is the least congruence containing it in which no two
    classes have equal quotient rows and columns. Each distinct congruence
    appears once, finest first (more classes first, ties by class vector).
    The nodes of the pair graph are the unordered pairs {a, b}. Raises
    DecompositionTooLargeError past the byte cap (see `_pair_pass`).
    """
    t, maps = _translations(sg)
    n = len(t)
    images = np.ascontiguousarray(maps.T)   # images[x]: the translates of x
    row = f"V{4 * len(maps)}"               # those of one element, as bytes
    every = np.arange(n, dtype=np.int32)

    def close(parts):
        """The least congruences above the parts, with no two classes alike.

        A part's pairs and results hold their translates, so the partition
        that joins them is a congruence E. Then E <- M(E) until stable: M(E)
        relates x and y when E relates f(x) and f(y) for every translation
        f, so it merges the classes whose quotient rows and columns are
        equal. M is monotone and keeps a congruence's pairs, so this ends at
        the least such congruence above E.
        """
        u, v = [], []
        for s, (nodes, below) in enumerate(parts):   # part s on elements s*n..s*n+n-1
            u += [a[nodes] + s * n] + [every + s * n] * len(below)
            v += [b[nodes] + s * n] + [q + s * n for q in below]
        step = classes(n * len(parts), np.concatenate(u), np.concatenate(v)).reshape(-1, n) % n
        offset = n * np.arange(len(parts), dtype=np.int32)[:, None, None]
        first = None
        while not np.array_equal(step, first):   # group elements by their translates' classes
            first = step
            keys = np.ascontiguousarray(first[:, images] + offset).view(row)
            _, head, group = np.unique(keys, return_index=True, return_inverse=True)
            step = (head[group] % n).astype(np.int32).reshape(-1, n)
        return first

    a, b = np.triu_indices(n, 1)
    ids = np.full((n, n), -1, dtype=np.int32)
    ids[a, b] = ids[b, a] = np.arange(len(a))
    found, _ = _pair_pass(maps, every, ids, a, b, close, lambda q, x, y: q[x] == q[y], max_bytes)
    vectors = sorted((_canonical(q) for q in found), key=lambda v: (-max(v), v))
    return [Congruence(sg.st, v) for v in vectors]


def _first_members(sg, vector):
    """Each element's least class-mate, or None if the classes are no congruence.

    Elements share a class when their ids are equal, and the ids may be of
    any kind: ints in any order or scale, or strings. In a congruence,
    replacing both factors of a product by their least class-mates never
    changes the product's class.
    """
    v = np.asarray(vector)
    if v.shape != (sg.order,):
        raise ValidationError("class vector length must match the table")
    rep, t = np.argmax(v[:, None] == v, axis=1), sg._idx
    return None if (rep[t] != rep[t[rep[:, None], rep]]).any() else rep


def is_congruence(sg, vector):
    """Does the class vector satisfy the substitution property?"""
    return _first_members(sg, vector) is not None


# ---------------------------------------------------------------- quasi-orders


class PiRelation:
    """A quasi-order over table elements, compatible with multiplication."""

    def __init__(self, labels, matrix, seed=None):
        self.labels = tuple(labels)
        self.matrix = np.asarray(matrix, dtype=bool)
        self.matrix.setflags(write=False)
        self.seed = seed            # the (x, y) pair whose closure this is

    @property
    def size(self):
        return int(self.matrix.sum())

    def key(self):
        return self.matrix.tobytes()

    def partition(self):
        """Classes of mutually related elements, canonically numbered."""
        mutual = self.matrix & self.matrix.T
        np.fill_diagonal(mutual, True)
        return _canonical(np.argmax(mutual, axis=1))


class PiLattice:
    """The distinct principal compatible quasi-orders over a table + order.

    On its first query the lattice builds one inclusion matrix over its
    members, `containment` of their flattened cells, and keeps its strict
    part `_lt`. `atoms`, `meet_complements` and `designated_complement` are
    masks on it; none compares members itself.
    """

    def __init__(self, labels, base, members):
        self.labels = tuple(labels)
        self.base = base                      # the underlying partial order
        self.members = tuple(members)
        self._cells = np.array([m.matrix.reshape(-1) for m in self.members], dtype=bool)

    @cached_property
    def _lt(self):
        """_lt[i, j]: member i lies strictly inside member j."""
        leq = containment(self._cells)
        return leq & ~leq.T

    def atoms(self):
        """Inclusion-minimal members strictly above the base order."""
        proper = ~(self._cells == np.reshape(self.base, -1)).all(axis=1)
        has_lower = (self._lt & proper[:, None]).any(axis=0)
        return [self.members[i] for i in np.flatnonzero(proper & ~has_lower)]

    def meet_complements(self, atom):
        """Maximal members that do not contain the given atom."""
        non = (atom.matrix.reshape(-1) & ~self._cells).any(axis=1)
        has_upper = (self._lt & non[None, :]).any(axis=1)
        return [self.members[i] for i in np.flatnonzero(non & ~has_upper)]

    def designated_complement(self, atom):
        """The largest meet complement (ties broken by cell pattern)."""
        return min(self.meet_complements(atom), key=lambda m: (-m.size, m.key()), default=None)


def factorize(sg, po, max_bytes=None):
    """All principal compatible quasi-orders extending the element order.

    For each ordered pair not already comparable, the pair is adjoined and
    closed; the distinct results, together with the order itself, form the
    lattice searched for atoms and their complements. The element order must
    be a partial order. The nodes of the pair graph are the ordered pairs
    that the least compatible quasi-order above the element order lacks; a
    seed it holds closes to it. Raises DecompositionTooLargeError past the
    byte cap (see `_pair_pass`).
    """
    if tuple(po.labels) != tuple(sg.st):
        raise ValidationError("order and table must share their element labels")
    po.check()
    _, maps = _translations(sg)
    base = np.asarray(po.matrix, dtype=bool)
    start, grown = None, base
    while not np.array_equal(grown, start):   # up to the least compatible quasi-order above it
        start, (x, y) = grown, np.nonzero(grown)
        grown = transitive_closure(start)
        grown[maps[:, x], maps[:, y]] = True
    xs, ys = np.nonzero(~start)
    ids = np.full(start.shape, -1, dtype=np.int32)
    ids[xs, ys] = np.arange(len(xs))

    def close(parts):
        """The least quasi-orders above start that hold each part."""
        m = np.repeat(start[None], len(parts), axis=0)
        for s, (nodes, below) in enumerate(parts):
            m[s, xs[nodes], ys[nodes]] = True
            for q in below:
                m[s] |= q
        return transitive_closure(m)

    found, of = _pair_pass(maps, start, ids, xs, ys, close, lambda q, x, y: q[x, y], max_bytes)
    which = np.append(of, len(found))[ids[~base]]   # each seed's result, or start's
    found.append(start)
    xs, ys = np.nonzero(~base)
    members = [PiRelation(sg.st, base)] + [
        PiRelation(sg.st, found[which[i]], seed=(sg.st[xs[i]], sg.st[ys[i]]))
        for i in sorted(np.unique(which, return_index=True)[1])
    ]
    return PiLattice(sg.st, base, members)


# ----------------------------------------------------------------- reductions


@dataclass
class Reduction:
    """One factor of a decomposition: classes plus the quotient algebra."""

    labels: tuple
    vector: tuple
    table: list
    order: Poset = None


def _quotient(sg, vector, q=None):
    """The table (and order q) over each class's least member, by label."""
    rep = _first_members(sg, vector)
    if rep is None:
        raise ValidationError("partition is not a congruence of the table")
    firsts = np.flatnonzero(rep == np.arange(len(rep)))
    labels = np.array(sg.st, dtype=object)
    table = labels[rep[sg._idx[firsts[:, None], firsts]]].tolist()
    order = None if q is None else Poset(labels[firsts], np.asarray(q)[firsts[:, None], firsts])
    return Reduction(tuple(sg.st), _canonical(rep), table, order)


def decompose(sg, parts, mode="cc"):
    """Quotient the table by congruences or by a lattice's atoms.

    mode "cc" takes an iterable of Congruence objects; "atoms" quotients by
    each atom's mutual-pair partition; "mca" does the same through each
    atom's designated meet complement, whose coarser classes give the
    strongest reduction that still separates the atom.
    """
    if mode == "cc":
        return [_quotient(sg, c.vector) for c in parts]
    if mode not in ("atoms", "mca"):
        raise ValidationError(f"unknown decomposition mode {mode!r}")
    if not isinstance(parts, PiLattice):
        raise ValidationError("atoms/mca modes need the factorize() result")
    sources = (a if mode == "atoms" else parts.designated_complement(a) for a in parts.atoms())
    return [_quotient(sg, s.partition(), q=s.matrix) for s in sources if s is not None]
