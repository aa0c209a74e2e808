"""Closure of string relations under composition, tables, and the order.

Words are read left to right ("CF" = C first, then F). Two words are equated
when their relation matrices coincide, and each distinct matrix is named by
the lexicographically first shortest word that produces it: candidates are
enumerated by length and, within a length, by generator position, so the
first word to hit a new image is that image's representative.

The representatives form a word tree: each word is a letter or a shorter
representative followed by one letter. The closure grows the tree a level
at a time, with one boolean product per block of a level: the level's
images stacked against every letter side by side. It keeps ``right[i, a]``,
the index of element i times letter a (the right Cayley graph of Froidure
and Pin), and the table follows from it column by column, since x(pa) =
(xp)a. No product of two elements is ever formed. Word equations and
relation boxes read a word's element off the closure's first k levels as
its prefix's element times its last letter: only the closure multiplies.
"""

import math

import numpy as np

from .errors import ClosureTooLargeError, ValidationError, read_cap
from .netcore import (
    _BLOCK_CELLS, _array, _check_labels, bool_product, bool_rows, containment,
    permutation_order, string_list,
)

DEFAULT_MAX_CLOSURE = 100_000


def _closure_cap(max_elements):
    return read_cap(max_elements, "RELALG_MAX_CLOSURE", DEFAULT_MAX_CLOSURE)


class StringSet:
    """The distinct string relations of a network, closed under composition."""

    def __init__(self, actors, alphabet, words, images, generator_elements, right):
        self.actors = tuple(actors)
        self.alphabet = tuple(alphabet)          # letter labels, in lex order
        self.words = tuple(tuple(w) for w in words)
        self.images = tuple(images)              # one boolean matrix per word
        self.st = tuple("".join(w) for w in self.words)
        self.generator_elements = tuple(generator_elements)  # (letter, element index)
        self.right = right                       # element i times letter a, N x |alphabet|

    @property
    def order(self):
        return len(self.st)


def generate_strings(net, include_transposes=False, max_elements=None):
    """Breadth-first closure of the generator slices under composition.

    Seeds with the generators (and their transposes when asked), then
    right-multiplies each level of new representatives by every generator,
    the whole level in one product. A word becomes a representative iff its
    image matrix was not seen before. Raises ClosureTooLargeError as soon as
    the closure would hold more than max_elements elements.
    """
    return _closure(net, include_transposes, _closure_cap(max_elements))


def _closure(net, include_transposes, cap, depth=None):
    """The closure, expanding only elements whose word is shorter than depth.

    Expands a level at a time: each block of the level's images, stacked, is
    multiplied once by every letter laid side by side, and the products are
    kept in (element, letter) order, so the first word to reach an image is
    still its representative. Images are read-only and may be shared.
    """
    letters = [(s.name, s.cells) for s in net.slices]
    if include_transposes:
        taken = sorted(set(net.slice_names) & {"t" + name for name in net.slice_names})
        if taken:
            raise ValidationError(
                f"slice {taken[0]!r} is named like the transpose of slice "
                f"{taken[0][1:]!r}; rename it to use transposes"
            )
        letters += [("t" + s.name, s.cells.T) for s in net.slices]
    alphabet = [name for name, _ in letters]
    n, nl = net.n, len(letters)
    words, images, seen, gen_elements = [], [], {}, []
    for (name, cells), key in zip(letters, _keys(np.array([c for _, c in letters]))):
        if key not in seen:
            seen[key] = len(words)
            words.append((name,))
            images.append(cells)
        gen_elements.append((name, seen[key]))
    if len(words) > cap:
        raise ClosureTooLargeError(cap + 1, cap)
    side_by_side = np.concatenate([cells for _, cells in letters], axis=1)
    block = max(1, _BLOCK_CELLS // (n * n * nl or 1))
    frontier, start, right = np.array(images), 0, []
    while len(frontier) and (depth is None or len(words[start]) < depth):
        admitted = []
        for b in range(start, start + len(frontier), block):
            part = frontier[b - start:b - start + block]
            prod = bool_product(part.reshape(len(part) * n, n), side_by_side)
            prod = prod.reshape(len(part), n, nl, n).swapaxes(1, 2).reshape(len(part) * nl, n, n)
            fresh = []
            for c, key in enumerate(_keys(prod)):
                if key not in seen:
                    if len(words) >= cap:
                        raise ClosureTooLargeError(len(words) + 1, cap)
                    seen[key] = len(words)
                    words.append(words[b + c // nl] + (alphabet[c % nl],))
                    fresh.append(c)
                right.append(seen[key])
            admitted.append(prod[fresh])
        start += len(frontier)
        frontier = np.concatenate(admitted)
        frontier.setflags(write=False)
        images.extend(frontier)
    right = np.array(right, dtype=int).reshape(-1, nl)
    return StringSet(net.actors, alphabet, words, images, gen_elements, right)


def _keys(stack):
    """One bytes key per matrix of a stack: its cells packed 8 to a byte."""
    rows = np.packbits(stack.reshape(len(stack), stack.shape[1] * stack.shape[2]), axis=1)
    if not rows.shape[1]:                        # matrices over no actors
        return [b""] * len(rows)
    return rows.view(f"V{rows.shape[1]}").ravel().tolist()


class Semigroup:
    """A closed string set with its multiplication table.

    The numerical format indexes elements 1-based in st order; the symbolic
    format uses the representative labels. Both render the same underlying
    0-based index table.
    """

    def __init__(self, st, generators, table_idx, fmt):
        self.st = tuple(st)
        self._generators = tuple(generators)     # (letter, 0-based element index)
        self._idx = np.asarray(table_idx, dtype=int)
        self._idx.setflags(write=False)
        if fmt not in ("numerical", "symbolic"):
            raise ValidationError(f"unknown table format {fmt!r}")
        self.format = fmt

    @property
    def order(self):
        return len(self.st)

    @property
    def table(self):
        if self.format == "numerical":
            return (self._idx + 1).tolist()
        return np.array(self.st, dtype=object)[self._idx].tolist()

    def index_table(self):
        """The 0-based index table (a copy safe to mutate)."""
        return self._idx.tolist()

    def product(self, i, j):
        """0-based index of element i composed with element j."""
        return int(self._idx[i, j])

    def generator_elements(self):
        """(letter, 0-based element index) for each generator letter."""
        return list(self._generators)

    def to_dict(self):
        return {
            "st": list(self.st),
            "table": self.table,
            "order": self.order,
            "generators": [[lbl, i + 1] for lbl, i in self.generator_elements()],
        }


def _transpose(a, block=256):
    """Transpose a square array in place, a pair of blocks at a time."""
    for i in range(0, len(a), block):
        rows = slice(i, i + block)
        a[rows, rows] = a[rows, rows].T.copy()
        for j in range(i + block, len(a), block):
            cols = slice(j, j + block)
            upper = a[rows, cols].copy()
            a[rows, cols] = a[cols, rows].T
            a[cols, rows] = upper.T
    return a


def build_semigroup(strings, fmt="numerical"):
    """Multiplication table over a closed string set, one column per element.

    Walks ``right`` breadth first: a generator's column is ``right[:, a]``, an
    element first reached as p times letter a gets ``right[T[:, p], a]``.
    The columns are written as the rows of one array, which is then
    transposed in place, so only one table is ever held.
    """
    n = strings.order
    cols = np.empty((n, n), dtype=int)           # the transpose, filled by rows
    reached = set()
    edges = [(np.arange(n), a, g) for a, (_, g) in enumerate(strings.generator_elements)]
    for col, a, j in edges:                      # grows as elements are reached
        if j not in reached:
            reached.add(j)
            cols[j] = strings.right[col, a]
            edges += [(cols[j], b, k) for b, k in enumerate(strings.right[j].tolist())]
    if len(reached) < n:
        missing = strings.st[min(set(range(n)) - reached)]
        raise ValidationError(f"{missing} is not a product of letters; not a closed StringSet")
    return Semigroup(strings.st, strings.generator_elements, _transpose(cols), fmt)


def semigroup_from_dict(data):
    """Rebuild a table-only semigroup from its JSON export.

    The word tables are gone at this point, so the result supports table
    algebra (congruences, quotients, Cayley graphs) but not matrix queries.
    """
    try:
        st, table = data["st"], data["table"]
    except (KeyError, TypeError) as exc:
        raise ValidationError('semigroup JSON needs "st" and "table"') from exc
    n = len(string_list(st, 'semigroup "st"'))
    if not isinstance(table, list) or len(table) != n or any(
        not isinstance(row, list) or len(row) != n for row in table
    ):
        raise ValidationError('semigroup "table" must be square over the "st" list')
    pos = {lbl: i + 1 for i, lbl in enumerate(st)}
    cells = [cell for row in table for cell in row]
    for cell in cells:
        if isinstance(cell, str) and cell not in pos:
            raise ValidationError(f"table cell {cell!r} is not in st")
        if not isinstance(cell, str) and not _is_index(cell, n):
            raise ValidationError(f"table cell {cell!r} is not an index in 1..{n}")
    fmt = "symbolic" if any(isinstance(cell, str) for cell in cells) else "numerical"
    idx = np.array([pos.get(cell, cell) for cell in cells], dtype=int).reshape(n, n) - 1
    gens = data.get("generators", [])
    if not isinstance(gens, list) or not all(
        isinstance(g, list) and len(g) == 2 and _is_index(g[1], n) for g in gens
    ):
        raise ValidationError(f'"generators" must list [letter, index in 1..{n}] pairs')
    string_list([lbl for lbl, _ in gens], '"generators" letters')
    return Semigroup(st, [(lbl, i - 1) for lbl, i in gens], idx, fmt)


def _is_index(cell, n):
    return isinstance(cell, int) and not isinstance(cell, bool) and 1 <= cell <= n


def _words(net, k, include_transposes):
    """The images of the closure's first k levels, and (word, element) for
    every word of length 1..k, by length, then letter.

    Raises ClosureTooLargeError before any product when the number of words
    exceeds the closure cap. A word's element is the right translation of
    its prefix's element by its last letter, so no word takes a product.
    """
    if k < 1:
        raise ValidationError("k must be at least 1")
    nletters = len(net.slices) * (2 if include_transposes else 1)
    cap = _closure_cap(None)
    total = 0
    for d in range(1, k + 1):
        total += nletters ** d
        if total > cap:
            raise ClosureTooLargeError(total, cap)
    strings = _closure(net, include_transposes, cap, k)
    right = strings.right.tolist()
    words = list(strings.generator_elements)
    for j in range(total - nletters ** k):       # each word shorter than k, in order
        word, i = words[j]
        words += [(word + name, right[i][a]) for a, name in enumerate(strings.alphabet)]
    return strings.images, words


def equations(net, k, include_transposes=False):
    """Words of length <= k grouped by image; singleton groups are omitted.

    Keys are the representative labels (first word of each group, which by
    the enumeration order is the lexicographically first shortest one).
    """
    groups = {}
    for word, i in _words(net, k, include_transposes)[1]:
        groups.setdefault(i, []).append(word)
    return {
        members[0]: members for members in groups.values() if len(members) > 1
    }


class Poset:
    """Labels with a boolean order matrix; M[i][j] = 1 iff i <= j."""

    def __init__(self, labels, matrix):
        self.labels = _check_labels(labels, "element")
        self.matrix = _array(matrix, bool)
        n = len(self.labels)
        if self.matrix is None or self.matrix.shape != (n, n):
            raise ValidationError("order matrix must be square over the labels")
        self.matrix.setflags(write=False)

    @property
    def n(self):
        return len(self.labels)

    def leq(self, a, b):
        return bool(self.matrix[self._at(a), self._at(b)])

    def _at(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValidationError(f"unknown element {label!r}") from None

    def is_reflexive(self):
        return bool(self.matrix.diagonal().all())

    def is_transitive(self):
        return not (bool_product(self.matrix, self.matrix) & ~self.matrix).any()

    def antisymmetry_violations(self):
        """Mutual pairs of distinct elements (empty for a true poset)."""
        rows, cols = np.nonzero(np.triu(self.matrix & self.matrix.T, 1))
        return [(self.labels[i], self.labels[j]) for i, j in zip(rows, cols)]

    def is_antisymmetric(self):
        return not self.antisymmetry_violations()

    def check(self):
        """Raise unless reflexive, antisymmetric, and transitive."""
        problems = []
        if not self.is_reflexive():
            problems.append("not reflexive")
        if not self.is_antisymmetric():
            problems.append(f"mutual pairs: {self.antisymmetry_violations()}")
        if not self.is_transitive():
            problems.append("not transitive")
        if problems:
            raise ValidationError("not a poset: " + "; ".join(problems))
        return self

    def upset(self, label):
        """Indices of every element >= the given one (itself included)."""
        return [int(j) for j in np.nonzero(self.matrix[self._at(label)])[0]]

    def downset(self, label):
        return [int(i) for i in np.nonzero(self.matrix[:, self._at(label)])[0]]

    def permuted(self, clustering):
        order = permutation_order(self.labels, clustering)
        idx = np.asarray(order, dtype=int)
        return Poset([self.labels[i] for i in order], self.matrix[np.ix_(idx, idx)])

    def to_dict(self):
        return {
            "labels": list(self.labels),
            "matrix": [[int(x) for x in row] for row in self.matrix],
        }

    @classmethod
    def from_dict(cls, data):
        try:
            labels, matrix = data["labels"], data["matrix"]
        except (KeyError, TypeError) as exc:
            raise ValidationError('poset JSON needs "labels" and "matrix"') from exc
        n = len(string_list(labels, 'poset "labels"'))
        return cls(labels, bool_rows(matrix, n, n, 'poset "matrix"'))


def transitive_closure(matrix):
    """Boolean reflexive-transitive closure by repeated squaring.

    Takes one square matrix or a stack of them. The stack is squared as one
    until it stops changing; a matrix that no longer changes drops out.
    """
    m = np.array(matrix, dtype=bool, order="C")
    diag = np.arange(m.shape[-1])
    m[..., diag, diag] = True
    stack = m.reshape(math.prod(m.shape[:-2]), *m.shape[-2:])
    active = np.arange(len(stack))
    while active.size:
        part = stack[active]
        nxt = part | bool_product(part, part)
        changed = (nxt != part).any(axis=(1, 2))
        active = active[changed]
        stack[active] = nxt[changed]
    return m


def string_partial_order(strings):
    """Containment order: i <= j iff no cell of image i lies outside image j."""
    return Poset(strings.st, containment([np.ravel(img) for img in strings.images]))
