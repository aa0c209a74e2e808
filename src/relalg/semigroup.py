"""Closure of string relations under composition, tables, and the order.

Words are read left to right ("CF" = C first, then F). Two words are equated
when their relation matrices coincide, and each distinct matrix is named by
the lexicographically first shortest word that produces it: candidates are
enumerated by length and, within a length, by generator position, so the
first word to hit a new image is that image's representative.

The representatives form a word tree: each word is a letter or a shorter
representative followed by one letter. The closure keeps ``right[i, a]``,
the index of element i times letter a (the right Cayley graph of Froidure
and Pin), and the table follows from it column by column, since x(pa) =
(xp)a. No product of two elements is ever formed. Word equations and
relation boxes read a word's element off the closure's first k levels as
its prefix's element times its last letter: only the closure multiplies.
"""

import numpy as np

from .errors import ClosureTooLargeError, ValidationError, read_cap
from .netcore import (
    _check_labels, bool_product, bool_rows, containment, permutation_order, string_list,
)

DEFAULT_MAX_CLOSURE = 100_000


def _closure_cap(max_elements):
    return read_cap(max_elements, "RELALG_MAX_CLOSURE", DEFAULT_MAX_CLOSURE)


class StringSet:
    """The distinct string relations of a network, closed under composition."""

    def __init__(self, actors, alphabet, words, images, generator_elements=None, right=None):
        self.actors = tuple(actors)
        self.alphabet = tuple(alphabet)          # letter labels, in lex order
        self.words = tuple(tuple(w) for w in words)
        self.images = tuple(images)              # one boolean matrix per word
        self.st = tuple("".join(w) for w in self.words)
        if generator_elements is None:
            pos = {w: i for i, w in enumerate(self.words)}
            generator_elements = [(lbl, pos.get((lbl,))) for lbl in self.alphabet]
        self.generator_elements = tuple(generator_elements)
        self.right = right                       # N x |alphabet| indices, or None

    @property
    def order(self):
        return len(self.st)


def generate_strings(net, include_transposes=False, max_elements=None):
    """Breadth-first closure of the generator slices under composition.

    Seeds with the generators (and their transposes when asked), then
    right-multiplies every known representative by every generator. A word
    becomes a representative iff its image matrix was not seen before.
    """
    return _closure(net, include_transposes, _closure_cap(max_elements))


def _closure(net, include_transposes, cap, depth=None):
    """The closure, expanding only elements whose word is shorter than depth.

    Images are read-only, so words mapped to one element may share its array.
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
    words = []
    images = []
    seen = {}
    gen_elements = []
    for name, cells in letters:
        key = cells.tobytes()
        if key not in seen:
            seen[key] = len(words)
            words.append((name,))
            images.append(cells)
        gen_elements.append((name, seen[key]))
    frontier = list(range(len(words)))
    right = []                                   # row i is filled when i is expanded
    while frontier and (depth is None or len(words[frontier[0]]) < depth):
        nxt = []
        for i in frontier:
            row = []
            for name, cells in letters:
                img = bool_product(images[i], cells)
                key = img.tobytes()
                if key not in seen:
                    if len(words) >= cap:
                        raise ClosureTooLargeError(len(words) + 1, cap)
                    seen[key] = len(words)
                    nxt.append(len(words))
                    words.append(words[i] + (name,))
                    img.setflags(write=False)
                    images.append(img)
                row.append(seen[key])
            right.append(row)
        frontier = nxt
    alphabet = [name for name, _ in letters]
    return StringSet(net.actors, alphabet, words, images, gen_elements, np.array(right))


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
            return [[int(x) + 1 for x in row] for row in self._idx]
        return [[self.st[x] for x in row] for row in self._idx]

    def index_table(self):
        """The 0-based index table (a copy safe to mutate)."""
        return [[int(x) for x in row] for row in self._idx]

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


def _right_translations(strings):
    """right[i, a] by one image lookup each; -1 for a letter with no element."""
    by_key = {img.tobytes(): i for i, img in enumerate(strings.images)}
    right = np.full((strings.order, len(strings.generator_elements)), -1)
    for a, (letter, g) in enumerate(strings.generator_elements):
        for i, img in enumerate(strings.images if g is not None else ()):
            key = bool_product(img, strings.images[g]).tobytes()
            if key not in by_key:
                raise ValidationError(
                    f"product {strings.st[i]}*{letter} left the string set; "
                    "input was not a closed StringSet"
                )
            right[i, a] = by_key[key]
    return right


def build_semigroup(strings, fmt="numerical"):
    """Multiplication table over a closed string set, one column per element.

    Walks ``right`` breadth first: a generator's column is ``right[:, a]``, an
    element first reached as p times letter a gets ``right[T[:, p], a]``.
    """
    right = strings.right if strings.right is not None else _right_translations(strings)
    n = strings.order
    idx = np.empty((n, n), dtype=int)
    reached = {None, -1}                         # a letter with no element
    edges = [(np.arange(n), a, g) for a, (_, g) in enumerate(strings.generator_elements)]
    for col, a, j in edges:                      # grows as elements are reached
        if j not in reached:
            reached.add(j)
            idx[:, j] = right[col, a]
            edges += [(idx[:, j], b, k) for b, k in enumerate(right[j].tolist())]
    if len(reached) < n + 2:
        missing = strings.st[min(set(range(n)) - reached)]
        raise ValidationError(f"{missing} is not a product of letters; not a closed StringSet")
    return Semigroup(strings.st, strings.generator_elements, idx, fmt)


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
        self.matrix = np.asarray(matrix, dtype=bool)
        self.matrix.setflags(write=False)
        n = len(self.labels)
        if self.matrix.shape != (n, n):
            raise ValidationError("order matrix must be square over the labels")

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
    stack = m.reshape(-1, *m.shape[-2:])
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
