"""Labeled boolean relations and multiplex stacks.

A relation is a square boolean matrix over an ordered actor set; a multiplex
network is a stack of such matrices sharing one actor set. Everything is
treated as immutable after construction and every operation returns new
values, so results can be shared freely across threads.

Every boolean product in the package goes through bool_product, an exact
bitset product: rows packed into 64-bit words, combined with AND and OR
only, on one thread and without BLAS. It multiplies two matrices, or two
stacks of matrices matrix by matrix.
"""

import numpy as np

from .errors import DimensionError, ValidationError


def _array(cells, dtype):
    """cells as an array, or None when its rows are ragged."""
    try:
        return np.asarray(cells, dtype=dtype)
    except ValueError:
        return None


def _check_labels(labels, what="actor"):
    labels = tuple(str(x) for x in labels)
    if len(set(labels)) != len(labels):
        raise ValidationError(f"{what} labels must be unique")
    return labels


# A single named relation over an ordered actor set.
class RelationMatrix:
    def __init__(self, name, actors, cells):
        self.name = str(name)
        self.actors = _check_labels(actors)
        self.cells = _array(cells, bool)
        n = len(self.actors)
        if self.cells is None or self.cells.shape != (n, n):
            found = "ragged" if self.cells is None else self.cells.shape
            raise DimensionError(f"relation {self.name!r}: cells are {found}, expected {(n, n)}")
        self.cells.setflags(write=False)

    @classmethod
    def from_ties(cls, name, actors, ties):
        actors = _check_labels(actors)
        index = {a: i for i, a in enumerate(actors)}
        cells = np.zeros((len(actors), len(actors)), dtype=bool)
        for tie in ties:
            if not isinstance(tie, (list, tuple)) or len(tie) != 2:
                raise ValidationError(f"tie {tie!r} is not a (source, target) pair")
            if not all(isinstance(x, str) and x in index for x in tie):
                raise ValidationError(f"tie {tuple(tie)!r} names an unknown actor")
            cells[index[tie[0]], index[tie[1]]] = True
        return cls(name, actors, cells)

    @property
    def n(self):
        return len(self.actors)

    def ties(self):
        """Ordered (source, target) label pairs for every set cell."""
        rows, cols = np.nonzero(self.cells)
        return [(self.actors[i], self.actors[j]) for i, j in zip(rows, cols)]

    def __eq__(self, other):
        # Name is presentation only; two relations are the same relation
        # when they connect the same actors the same way.
        if not isinstance(other, RelationMatrix):
            return NotImplemented
        return self.actors == other.actors and np.array_equal(self.cells, other.cells)

    def __hash__(self):
        return hash((self.actors, self.cells.tobytes()))

    def __repr__(self):
        return f"RelationMatrix({self.name!r}, n={self.n}, ties={int(self.cells.sum())})"


class MultiplexNetwork:
    """An ordered stack of relations over one shared actor set."""

    def __init__(self, actors, slices):
        self.actors = _check_labels(actors)
        self.slices = tuple(slices)
        if not self.slices:
            raise ValidationError("a network needs at least one relation slice")
        names = [s.name for s in self.slices]
        if len(set(names)) != len(names):
            raise ValidationError("slice names must be unique")
        for s in self.slices:
            if s.actors != self.actors:
                raise DimensionError(
                    f"slice {s.name!r} has a different actor set than the network"
                )

    @property
    def n(self):
        return len(self.actors)

    @property
    def slice_names(self):
        return tuple(s.name for s in self.slices)

    def slice(self, name):
        for s in self.slices:
            if s.name == name:
                return s
        raise ValidationError(f"no slice named {name!r}")

    def __repr__(self):
        return f"MultiplexNetwork(n={self.n}, slices={list(self.slice_names)})"


def compose(a, b):
    """Relational composition: a first, then b.

    (i, j) is set iff some k has a(i, k) and b(k, j). The word "CF" therefore
    reads "a C-tie followed by an F-tie".
    """
    if a.actors != b.actors:
        raise DimensionError("compose: operands have different actor sets")
    return RelationMatrix(a.name + b.name, a.actors, bool_product(a.cells, b.cells))


# Below this size in any dimension numpy's bool @ is the faster product.
_SMALL = 32
# uint64 words in the bitset product's accumulator, and again in its scratch,
# so that the two together stay at 1 MiB.
_BLOCK_WORDS = 1 << 16
# Cells in one block of matrices that are multiplied or closed together.
_BLOCK_CELLS = 1 << 20


def _pack(x):
    """[s, w, r] holds word w of the bitset of row r of matrix s (uint64, zero-padded)."""
    s, rows, k = x.shape
    padded = np.zeros((s, rows, -(-k // 64) * 64), dtype=bool)
    padded[..., :k] = x
    words = np.packbits(padded).view(np.uint64).reshape(s, rows, padded.shape[-1] // 64)
    return np.ascontiguousarray(words.swapaxes(1, 2))


def bool_product(a, b):
    """Boolean matrix product: (i, j) is set iff some k has a(i, k) and b(k, j).

    a and b are two matrices, or two stacks of as many matrices, multiplied
    matrix by matrix. At _SMALL or more in every dimension, the rows of a and
    the columns of b are packed into 64-bit words, and each block (of whole
    matrices, or of rows when one matrix is too large) ORs together the ANDs
    of their words, stopping early once every cell is set. Only AND and OR
    are used, so the result is exact at any size; there is no float step and
    no BLAS call.
    """
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.ndim != b.ndim or a.ndim not in (2, 3) or a.shape[:-2] != b.shape[:-2]:
        raise ValueError(f"bool_product: operands {a.shape} and {b.shape} do not pair up")
    (m, k), (k2, n) = a.shape[-2:], b.shape[-2:]
    if k != k2:
        raise ValueError(f"bool_product: inner dimensions {k} and {k2} differ")
    if min(m, k, n) < _SMALL:
        return a @ b
    if a.ndim == 2:
        return bool_product(a[None], b[None])[0]
    s = len(a)
    aw, bw = _pack(a), _pack(b.swapaxes(1, 2))
    words = aw.shape[1]
    out = np.empty((s, m, n), dtype=bool)
    mats = max(1, _BLOCK_WORDS // (m * n))
    rows = max(1, _BLOCK_WORDS // n)
    acc = np.empty((min(mats, s), min(rows, m), n), dtype=np.uint64)
    tmp = np.empty_like(acc)
    for i in range(0, s, mats):
        i2 = min(i + mats, s)
        for j in range(0, m, rows):
            j2 = min(j + rows, m)
            acc_b, tmp_b = acc[:i2 - i, :j2 - j], tmp[:i2 - i, :j2 - j]
            np.bitwise_and(aw[i:i2, 0, j:j2, None], bw[i:i2, 0, None], out=acc_b)
            live = True
            for w in range(1, words):
                # Dense operands: stop once every word is set. A set first word,
                # then a strided sample, guard the full check. A sample with
                # over 1/64 of its words unset ends the checks for this block,
                # and the last word is never worth one.
                if live and w < words - 1 and acc_b.item(0):
                    sample = acc_b[:, ::8, ::8]
                    unset = sample.size - np.count_nonzero(sample)
                    if not unset and acc_b.min():
                        break
                    live = unset * 64 <= sample.size
                np.bitwise_and(aw[i:i2, w, j:j2, None], bw[i:i2, w, None], out=tmp_b)
                acc_b |= tmp_b
            np.not_equal(acc_b, 0, out=out[i:i2, j:j2])
    return out


def containment(x):
    """i <= j when row i of a boolean matrix lies inside row j."""
    x = np.asarray(x, dtype=bool)
    return ~bool_product(x, ~x.T)


def transpose(a):
    return RelationMatrix("t" + a.name, a.actors, a.cells.T)


def classes(n, u, v):
    """Each of 0..n-1's least class-mate (int32) in the partition joining u[k] with v[k].

    A whole-array union-find: each edge whose ends have different labels
    hooks the larger label onto the smaller, and labels are followed to
    their roots, until no edge splits. Labels only decrease, so each class
    ends labelled by its least member.
    """
    f = np.arange(n, dtype=np.int32)
    while True:
        a, b = f[u], f[v]
        split = a != b
        if not split.any():
            return f
        np.minimum.at(f, np.maximum(a, b)[split], np.minimum(a, b)[split])
        while not np.array_equal(f[f], f):
            f = f[f]


def connected_components(adj):
    """Components of a boolean adjacency, direction ignored.

    Each is an ascending index array; they are listed by their first index.
    """
    f = classes(len(adj), *np.nonzero(adj))
    sizes = np.bincount(f, minlength=len(f))[f == np.arange(len(f))]
    return np.split(np.argsort(f, kind="stable"), np.cumsum(sizes))[:-1]


def components(net):
    """Weak components of the union of all slices, plus isolates.

    Direction is ignored. Any tie at all makes its endpoints part of a
    component, so a lone reciprocal or asymmetric dyad is a two-actor
    component, never a pair of isolates. Components are listed by their
    first actor's position; membership follows actor order.
    """
    union = np.any([s.cells for s in net.slices], axis=0)
    comps = [[net.actors[i] for i in comp] for comp in connected_components(union)]
    return [c for c in comps if len(c) > 1], [c[0] for c in comps if len(c) == 1]


def remove_isolates(net):
    """Drop every actor with zero degree across all slices."""
    isolates = set(components(net)[1])
    keep = [a for a in net.actors if a not in isolates]
    return select_subnetwork(net, keep)


def select_subnetwork(net, labels):
    """Induced sub-tensor on the given actors, all slices, order preserved."""
    wanted = set(labels)
    unknown = wanted - set(net.actors)
    if unknown:
        raise ValidationError(f"unknown actors: {sorted(unknown)}")
    keep = [i for i, a in enumerate(net.actors) if a in wanted]
    actors = [net.actors[i] for i in keep]
    idx = np.asarray(keep, dtype=int)
    slices = [
        RelationMatrix(s.name, actors, s.cells[np.ix_(idx, idx)]) for s in net.slices
    ]
    return MultiplexNetwork(actors, slices)


def permutation_order(labels, clustering):
    """Row order sorted by ascending class id, stable within class.

    clustering maps every label to a sortable class id; a missing label is
    an error.
    """
    missing = [a for a in labels if a not in clustering]
    if missing:
        raise ValidationError(f"clustering misses labels: {missing}")
    return sorted(range(len(labels)), key=lambda i: (clustering[labels[i]], i))


def permute(matrix, clustering):
    """Reorder a labeled square matrix by class id (rows and columns alike)."""
    order = permutation_order(matrix.actors, clustering)
    idx = np.asarray(order, dtype=int)
    actors = [matrix.actors[i] for i in order]
    return RelationMatrix(matrix.name, actors, matrix.cells[np.ix_(idx, idx)])


# ---------------------------------------------------------------------------
# JSON interchange

def required(data, what, *keys):
    """data[key] for each key, if data is a mapping that holds them all."""
    try:
        return [data[key] for key in keys]
    except (KeyError, TypeError) as exc:
        raise ValidationError(what) from exc


def string_list(value, what):
    """value itself, if it is a list of distinct strings."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ValidationError(f"{what} must be a list of strings")
    if len(set(value)) != len(value):
        raise ValidationError(f"{what} must not repeat a label")
    return value


def bool_rows(value, nrows, ncols, what):
    """value as an nrows x ncols bool array, if it is nrows lists of ncols
    cells that are 0, 1 or a bool (no rows at all make a 0 x ncols array)."""
    if not isinstance(value, list) or len(value) != nrows or not all(
        isinstance(row, list) and len(row) == ncols
        and all(isinstance(x, int) and x in (0, 1) for x in row)
        for row in value
    ):
        raise ValidationError(f"{what} must be {nrows} lists of {ncols} cells of 0/1")
    return np.array(value, dtype=bool).reshape(nrows, ncols)


def network_from_dict(data):
    actors, relations = required(
        data, 'network JSON needs "actors" and "relations" keys', "actors", "relations"
    )
    string_list(actors, '"actors"')
    if not isinstance(relations, list) or not relations:
        raise ValidationError('"relations" must be a nonempty list')
    slices = []
    for rel in relations:
        name, ties = required(rel, 'each relation needs "name" and "ties"', "name", "ties")
        if not isinstance(ties, list):
            raise ValidationError(f"relation {name!r}: ties must be a list of pairs")
        slices.append(RelationMatrix.from_ties(name, actors, ties))
    return MultiplexNetwork(actors, slices)


def network_to_dict(net):
    return {
        "actors": list(net.actors),
        "relations": [{"name": s.name, "ties": [list(t) for t in s.ties()]} for s in net.slices],
    }
