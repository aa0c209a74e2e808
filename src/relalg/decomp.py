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
associative, which both searches assume.

Each search closes many relations at once, as blocks of one stack of
matrices with one transitive closure per block. `factorize` grows each
seed pair by its translates. `find_congruences` makes one pass over the
pair graph, whose node {a, b} has an edge to each translate {f(a), f(b)}:
a pair's result contains the results of the pairs it reaches, so it is
settled once per strongly connected component, and a level of components
at a time.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .netcore import containment
from .semigroup import Poset, transitive_closure

# Cells in one block of relations that are closed together.
_BLOCK_CELLS = 1 << 20


def _canonical(assign):
    """Renumber class ids 1.. by first occurrence."""
    seen = {}
    out = []
    for a in assign:
        if a not in seen:
            seen[a] = len(seen) + 1
        out.append(seen[a])
    return tuple(out)


@dataclass(frozen=True)
class Congruence:
    """A class vector over the elements of a table, 1-based, canonical."""

    labels: tuple
    vector: tuple
    kind: str = "cc"

    @property
    def n_classes(self):
        return max(self.vector)

    def classes(self):
        out = {}
        for lbl, c in zip(self.labels, self.vector):
            out.setdefault(c, []).append(lbl)
        return out

    def as_dict(self):
        return dict(zip(self.labels, self.vector))


def _translations(sg):
    """Right maps x -> xg, then left maps x -> gx, one row per generator g.

    The generators are the table's own when they generate it, else every
    element. Light's test checks over them that the table is associative:
    (xg)y = x(gy) for every generator g gives it for every element, since
    the elements that pass are closed under products.
    """
    n = sg.order
    t = sg._idx
    gens = sorted({g for _, g in sg.generator_elements() if g is not None})
    reached = np.zeros(n, dtype=bool)
    reached[gens] = True
    frontier = np.asarray(gens, dtype=int)
    while frontier.size:
        step = np.unique(t[np.ix_(frontier, gens)])
        frontier = step[~reached[step]]
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
    return t, np.concatenate([t[:, gens].T, t[gens, :]])


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


def _settle(maps, classes, starts):
    """The least congruence above each start with no two classes alike.

    A start (results, pairs) relates the classes of earlier results (rows of
    `classes`) and some pairs both ways, and holds its translates, so its
    transitive closure E is a congruence. Then E <- M(E) until stable: M(E)
    relates x and y when E relates f(x) and f(y) for every translation f,
    so it merges the classes whose quotient rows and columns are equal. M is
    monotone and keeps a congruence's pairs, so this ends at the least such
    congruence above E. Each result lists every element's first class-mate.
    """
    n = classes.shape[1]
    images = np.ascontiguousarray(maps.T)   # images[x]: the translates of x
    row = f"V{4 * len(maps)}"               # those of one element, as bytes
    block = max(1, _BLOCK_CELLS // (n * n))
    out = []
    for lo in range(0, len(starts), block):
        part = starts[lo:lo + block]
        m = np.zeros((len(part), n, n), dtype=bool)
        joined = [(s, i) for s, (results, _) in enumerate(part) for i in results]
        mat, res = np.array(joined, dtype=int).reshape(-1, 2).T
        m[mat[:, None], np.arange(n), classes[res]] = True   # x ~ its first class-mate
        added = [(s, x, y) for s, (_, pairs) in enumerate(part) for x, y in pairs]
        mat, x, y = np.array(added, dtype=int).reshape(-1, 3).T
        m[mat, x, y] = True
        step = transitive_closure(m | m.swapaxes(1, 2)).argmax(axis=2)
        offset = n * np.arange(len(part), dtype=np.int32)[:, None, None]
        first = None
        while not np.array_equal(step, first):   # group elements by their translates' classes
            first = step
            keys = np.ascontiguousarray(first.astype(np.int32)[:, images] + offset).view(row)
            _, head, group = np.unique(keys, return_index=True, return_inverse=True)
            step = (head[group] % n).reshape(-1, n)
        out.extend(map(tuple, first.tolist()))
    return out


def find_congruences(sg):
    """The distinct results of collapsing each pair of elements in turn.

    A pair's result is the least congruence containing it in which no two
    classes have equal quotient rows and columns. Each distinct congruence
    appears once, finest first (more classes first, ties by class vector).
    The pairs of one strongly connected component of the pair graph share
    their result; the components are settled a level at a time.
    """
    t, maps = _translations(sg)
    n = len(t)
    a, b = np.triu_indices(n, 1)
    ids = np.full((n, n), -1)
    ids[a, b] = ids[b, a] = np.arange(len(a))
    succ = ids[maps[:, a], maps[:, b]]
    succ = np.where(succ < 0, np.arange(len(a)), succ)   # equal translates: a self-loop
    comp = np.array(_components(succ.T.tolist()), dtype=int)
    count = comp.max(initial=-1) + 1
    links = np.unique(comp * count + comp[succ])
    level, lower, pairs = [0] * count, [[] for _ in range(count)], [[] for _ in range(count)]
    src, dst = np.divmod(links[links // count != links % count], count)
    for c, d in zip(src.tolist(), dst.tolist()):
        level[c] = max(level[c], level[d] + 1)
        lower[c].append(d)
    for c, x, y in zip(comp.tolist(), a.tolist(), b.tolist()):
        pairs[c].append((x, y))
    levels = [[] for _ in range(max(level, default=-1) + 1)]
    for c, k in enumerate(level):
        levels[k].append(c)

    # A component's pairs share their least fixpoint R. A result below that
    # holds one of them holds R, so it is R; else R is settled above the
    # results below and the component's pairs.
    known, firsts, result = {}, [], [0] * count
    for comps in levels:
        seeds, starts = [], []
        for c in comps:
            (x, y), below = pairs[c][0], {result[d] for d in lower[c]}
            result[c] = next((i for i in below if firsts[i][x] == firsts[i][y]), None)
            if result[c] is None:
                seeds.append(c)
                starts.append((below, pairs[c]))
        for c, v in zip(seeds, _settle(maps, np.array(firsts, dtype=int).reshape(-1, n), starts)):
            result[c] = known.setdefault(v, len(known))
        firsts = list(known)
    vectors = {_canonical(firsts[i]) for i in set(result)}
    return [Congruence(sg.st, v) for v in sorted(vectors, key=lambda v: (-max(v), v))]


def _first_members(t, vector):
    """Each element's first class-mate, or None if the classes are no congruence.

    In a congruence, replacing both factors of a product by their first
    class-mates never changes the product's class.
    """
    first = {}
    rep = np.array([first.setdefault(c, i) for i, c in enumerate(vector)], dtype=int)
    v = np.asarray(vector)
    if (v[t] != v[t[np.ix_(rep, rep)]]).any():
        return None
    return rep


def is_congruence(sg, vector):
    """Does the class vector satisfy the substitution property?"""
    if len(vector) != sg.order:
        raise ValidationError("class vector length must match the table")
    return _first_members(sg._idx, vector) is not None


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

    def contains(self, other):
        return bool((other.matrix <= self.matrix).all())

    def key(self):
        return self.matrix.tobytes()

    def partition(self):
        """Classes of mutually related elements, canonically numbered."""
        mutual = self.matrix & self.matrix.T
        np.fill_diagonal(mutual, True)
        return _canonical(np.argmax(mutual, axis=1).tolist())


def _pi_close(maps, closed, pairs):
    """Smallest compatible quasi-orders containing closed ones plus some pairs.

    `closed` is a stack of quasi-orders already closed under the translations;
    `pairs` holds flat cell indices s * n * n + x * n + y, cell (x, y) of
    matrix s. Their translates are added breadth first, within each matrix.
    Transitive closure keeps a relation closed under the translations
    (a <= b <= c gives ag <= bg <= cg), so one pass of each reaches the
    fixpoint.
    """
    n = closed.shape[-1]
    m = closed.copy()
    flat = m.reshape(-1)
    while pairs.size:
        flat[pairs] = True
        mats, cells = np.divmod(pairs, n * n)
        rows, cols = np.divmod(cells, n)
        step = (mats * (n * n) + maps[:, rows] * n + maps[:, cols]).reshape(-1)
        pairs = np.unique(step[~flat[step]])
    return transitive_closure(m)


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


def factorize(sg, po):
    """All principal compatible quasi-orders extending the element order.

    For each ordered pair not already comparable, the pair is adjoined and
    closed; the distinct results, together with the order itself, form the
    lattice searched for atoms and their complements. The element order must
    be a partial order. The seeds are closed together, as blocks of one stack
    of relations of at most _BLOCK_CELLS cells each.
    """
    if tuple(po.labels) != tuple(sg.st):
        raise ValidationError("order and table must share their element labels")
    po.check()
    t, maps = _translations(sg)
    n = len(t)
    base = np.asarray(po.matrix, dtype=bool)
    closed = _pi_close(maps, np.eye(n, dtype=bool)[None], np.flatnonzero(base))
    members = [PiRelation(sg.st, base, seed=None)]
    seen = {base.tobytes()}
    xs, ys = np.nonzero(~base)
    block = max(1, _BLOCK_CELLS // (n * n))
    for start in range(0, len(xs), block):
        x, y = xs[start:start + block], ys[start:start + block]
        seeds = np.arange(len(x)) * (n * n) + x * n + y
        for i, q in enumerate(_pi_close(maps, np.repeat(closed, len(x), axis=0), seeds)):
            key = q.tobytes()
            if key not in seen:
                seen.add(key)
                # a copy, so that a member does not keep its whole block alive
                members.append(PiRelation(sg.st, q.copy(), seed=(sg.st[x[i]], sg.st[y[i]])))
    return PiLattice(sg.st, base, members)


# ----------------------------------------------------------------- reductions


@dataclass
class Reduction:
    """One factor of a decomposition: classes plus the quotient algebra."""

    labels: tuple
    vector: tuple
    table: list
    order: Poset = None
    kind: str = "cc"

    def as_dict(self):
        out = {
            "classes": dict(zip(self.labels, self.vector)),
            "table": self.table,
        }
        if self.order is not None:
            out["order"] = self.order.to_dict()
        return out


def _quotient(sg, vector, q=None, kind="cc"):
    t = sg._idx
    rep = _first_members(t, vector)
    if rep is None:
        raise ValidationError("partition is not a congruence of the table")
    # the vector numbers its classes 1.. by first occurrence
    firsts = np.flatnonzero(rep == np.arange(len(rep)))
    reps = [sg.st[i] for i in firsts]
    classes = np.asarray(vector)[t[np.ix_(firsts, firsts)]] - 1
    qt = [[reps[c] for c in row] for row in classes.tolist()]
    order = None if q is None else Poset(reps, np.asarray(q)[np.ix_(firsts, firsts)])
    return Reduction(tuple(sg.st), tuple(vector), qt, order, kind)


def decompose(sg, parts, mode="cc"):
    """Quotient the table by congruences or by a lattice's atoms.

    mode "cc" takes an iterable of Congruence objects; "atoms" quotients by
    each atom's mutual-pair partition; "mca" does the same through each
    atom's designated meet complement, whose coarser classes give the
    strongest reduction that still separates the atom.
    """
    if mode == "cc":
        return [_quotient(sg, c.vector, kind="cc") for c in parts]
    if mode not in ("atoms", "mca"):
        raise ValidationError(f"unknown decomposition mode {mode!r}")
    if not isinstance(parts, PiLattice):
        raise ValidationError("atoms/mca modes need the factorize() result")
    out = []
    for atom in parts.atoms():
        source = atom if mode == "atoms" else parts.designated_complement(atom)
        if source is None:
            continue
        out.append(
            _quotient(sg, source.partition(), q=source.matrix, kind=mode)
        )
    return out
