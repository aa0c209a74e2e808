"""Formal contexts, concepts, the concept lattice, and its filters.

A concept pairs a set of objects with the set of attributes they share,
each maximal against the other. Concepts are enumerated from the attribute
columns: the column extents come first (duplicates dropped), then their
pairwise-and-beyond intersections in discovery order, and the full object
set closes the list. Labels can be reduced so that every object and every
attribute tags exactly one concept.

The listing is held as two boolean matrices, the extents and the intents
with one row per concept, and two index arrays that give each object's and
each attribute's reduced-label concept. A `Concept` object is built only
when it is read; the order, meets, joins and filters work on the matrices.
"""

import csv
import io
from functools import cached_property

import numpy as np

from .errors import TooManyConceptsError, ValidationError, read_cap
from .netcore import (
    _array, _check_labels, bool_product, bool_rows, containment, required, string_list,
)
from .semigroup import Poset

# ConceptOrder holds C x C bools: 400 MB at this many concepts.
DEFAULT_MAX_CONCEPTS = 20_000


class FormalContext:
    """Objects x attributes with a boolean incidence table."""

    def __init__(self, objects, attributes, incidence):
        self.objects = _check_labels(objects, "object")
        self.attributes = _check_labels(attributes, "attribute")
        arr = _array(incidence, bool)
        if arr is None or arr.shape != (len(self.objects), len(self.attributes)):
            raise ValidationError("incidence shape must be objects x attributes")
        arr.setflags(write=False)
        self.incidence = arr

    @classmethod
    def from_dict(cls, data):
        objects, attributes, incidence = required(
            data, 'context JSON needs "objects", "attributes", "incidence"',
            "objects", "attributes", "incidence",
        )
        nobj = len(string_list(objects, 'context "objects"'))
        natt = len(string_list(attributes, 'context "attributes"'))
        return cls(objects, attributes, bool_rows(incidence, nobj, natt, 'context "incidence"'))

    @classmethod
    def from_csv(cls, text):
        """Cross-table: header row of attributes, first column of objects."""
        rows = list(csv.reader(io.StringIO(text)))
        if len(rows) < 2 or len(rows[0]) < 2:
            raise ValidationError("cross-table needs a header and one object row")
        attributes = [h.strip() for h in rows[0][1:]]
        objects = []
        incidence = []
        for row in rows[1:]:
            if not row or not row[0].strip():
                continue
            objects.append(row[0].strip())
            vals = [v.strip() for v in row[1:]]
            if len(vals) != len(attributes):
                raise ValidationError(f"row {row[0]!r} has {len(vals)} cells, expected {len(attributes)}")
            incidence.append([v not in ("", "0") for v in vals])
        return cls(objects, attributes, incidence)

    def to_dict(self):
        return {
            "objects": list(self.objects),
            "attributes": list(self.attributes),
            "incidence": [[int(x) for x in row] for row in self.incidence],
        }


def _indices(pool, labels, what):
    """Positions of labels in pool; an unknown label is a ValidationError."""
    out = []
    for x in labels:
        if x not in pool:
            raise ValidationError(f"unknown {what} {x!r}")
        out.append(pool.index(x))
    return out


def derive(ctx, objects):
    """Attributes shared by every given object (all of them for none)."""
    mask = ctx.incidence[_indices(ctx.objects, objects, "object")].all(axis=0)
    return frozenset(ctx.attributes[j] for j in np.flatnonzero(mask))


def extent(ctx, attributes):
    """Objects carrying every given attribute (all of them for none)."""
    mask = ctx.incidence[:, _indices(ctx.attributes, attributes, "attribute")].all(axis=1)
    return frozenset(ctx.objects[i] for i in np.flatnonzero(mask))


def _read_only(values, dtype):
    out = np.asarray(values, dtype=dtype)
    out.setflags(write=False)
    return out


class Concept:
    """An extent/intent pair; index is its 1-based position in the listing."""

    def __init__(
        self, index, extent_labels, intent_labels, reduced_objects=(), reduced_attributes=()
    ):
        self.index = index
        self.extent = frozenset(extent_labels)
        self.intent = frozenset(intent_labels)
        self.reduced_objects = tuple(reduced_objects)
        self.reduced_attributes = tuple(reduced_attributes)

    def label(self, reduced=True):
        """Printable "{attributes} {objects}" tag; bare index if both empty."""
        attrs = sorted(self.reduced_attributes if reduced else self.intent)
        objs = sorted(self.reduced_objects if reduced else self.extent)
        if not attrs and not objs:
            return str(self.index)
        return "{%s} {%s}" % (", ".join(attrs), ", ".join(objs))


class Concepts:
    """The full concept listing of a context, in canonical order, as matrices.

    Row k of the C x |G| extent matrix marks the objects of concept k + 1,
    row k of the C x |M| intent matrix its attributes; object_concept[g] and
    attribute_concept[m] give the position of the concept that each object
    and attribute labels in the reduced labelling. `Concept` objects are
    built only when read: `cs[k]` builds one, and iterating, `members` or
    `to_dict` builds the rest in one pass. `ConceptOrder` is the
    `containment` of the extent matrix.
    """

    def __init__(self, ctx, extent_matrix, intent_matrix, object_concept, attribute_concept):
        self.context = ctx
        self.extent_matrix = _read_only(extent_matrix, bool)
        self.intent_matrix = _read_only(intent_matrix, bool)
        self.object_concept = _read_only(object_concept, int)
        self.attribute_concept = _read_only(attribute_concept, int)
        self._built = {}   # position -> Concept, each built once

    def __len__(self):
        return len(self.extent_matrix)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.members[i]
        return self._take([range(len(self))[i]])[0]

    @cached_property
    def members(self):
        return tuple(self._take(range(len(self))))

    @cached_property
    def _reduced(self):
        """Position -> (reduced objects, reduced attributes), for labelled concepts."""
        out = {}
        for g, k in zip(self.context.objects, self.object_concept.tolist()):
            out.setdefault(k, ([], []))[0].append(g)
        for m, k in zip(self.context.attributes, self.attribute_concept.tolist()):
            out.setdefault(k, ([], []))[1].append(m)
        return out

    def _take(self, ks):
        """The concepts at positions ks, building those not yet built in one pass."""
        new = [k for k in ks if k not in self._built]
        if new:
            objects = np.array(self.context.objects, dtype=object)
            attributes = np.array(self.context.attributes, dtype=object)
            none = ((), ())
            self._built.update(
                (k, Concept(k + 1, objects[e], attributes[i], *self._reduced.get(k, none)))
                for k, e, i in zip(new, self.extent_matrix[new], self.intent_matrix[new])
            )
        return [self._built[k] for k in ks]

    @cached_property
    def _by_extent(self):
        return {row.tobytes(): k for k, row in enumerate(self.extent_matrix)}

    @cached_property
    def _by_intent(self):
        return {row.tobytes(): k for k, row in enumerate(self.intent_matrix)}

    def _lookup(self, index, row):
        k = index.get(row.tobytes())
        return None if k is None else self[k]

    def by_extent(self, labels):
        """The concept whose extent is exactly these objects, or None."""
        labels = set(labels)
        objects = self.context.objects
        row = np.fromiter((g in labels for g in objects), dtype=bool, count=len(objects))
        if row.sum() != len(labels):   # an unknown object
            return None
        return self._lookup(self._by_extent, row)

    def to_dict(self):
        out = []
        for c in self.members:
            out.append(
                {
                    "index": c.index,
                    "extent": sorted(c.extent),
                    "intent": sorted(c.intent),
                    "reduced_objects": sorted(c.reduced_objects),
                    "reduced_attributes": sorted(c.reduced_attributes),
                }
            )
        return out


def _bits(rows):
    """Each row of a boolean matrix as an int, bit g for column g."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def concepts(ctx, max_concepts=None):
    """Enumerate every concept of the context.

    Attribute column extents seed the list in column order; intersections
    of listed extents with the columns follow, in discovery order; the full
    object set is appended last if still missing. Extents are enumerated as
    bitsets (bit g for object g), each mapped to its position, then unpacked
    into the extent matrix X once; the intents are ~(X . ~incidence). Each
    attribute labels its own column's concept, and each object the smallest
    concept containing it, whose extent is the object's row of
    containment(incidence); both are read off the position map.

    Raises TooManyConceptsError as soon as the listing would exceed the cap:
    max_concepts, else RELALG_MAX_CONCEPTS, else DEFAULT_MAX_CONCEPTS.
    """
    cap = read_cap(max_concepts, "RELALG_MAX_CONCEPTS", DEFAULT_MAX_CONCEPTS)
    inc = ctx.incidence
    nobj = len(ctx.objects)
    cols = _bits(inc.T)
    seen = {}   # extent -> position
    for e in cols:
        seen.setdefault(e, len(seen))
    extents = list(seen)
    for a in extents:  # grows while it is walked
        for e in cols:
            inter = a & e
            if inter not in seen:
                seen[inter] = len(extents)
                extents.append(inter)
                if len(extents) > cap:
                    raise TooManyConceptsError(cap)
    full = (1 << nobj) - 1
    if full not in seen:
        seen[full] = len(extents)
        extents.append(full)
    if len(extents) > cap:
        raise TooManyConceptsError(cap)
    width = (nobj + 7) // 8
    raw = np.frombuffer(b"".join(e.to_bytes(width, "little") for e in extents), np.uint8)
    x = np.unpackbits(raw.reshape(len(extents), width), axis=1, count=nobj, bitorder="little") > 0
    return Concepts(
        ctx,
        x,
        ~bool_product(x, ~inc),
        [seen[e] for e in _bits(containment(inc))],
        [seen[e] for e in cols],
    )


class ConceptOrder(Poset):
    """Subconcept order: c <= d when the extent of c sits inside d's."""

    def __init__(self, cs, labels=None):
        if labels is None:
            labels = [f"c{k}" for k in range(1, len(cs) + 1)]
        elif len(labels) != len(cs):
            raise ValidationError("need one label per concept")
        super().__init__(labels, containment(cs.extent_matrix))
        self.concepts = cs

    def meet(self, i, j):
        """The concept whose extent is the intersection of two extents."""
        x = self.concepts.extent_matrix
        c = self.concepts._lookup(self.concepts._by_extent, x[i] & x[j])
        if c is None:
            raise ValidationError("extent intersection is not a concept")
        return c

    def join(self, i, j):
        """The concept whose intent is the intersection of two intents."""
        y = self.concepts.intent_matrix
        c = self.concepts._lookup(self.concepts._by_intent, y[i] & y[j])
        if c is None:
            raise ValidationError("intent intersection is not a concept")
        return c


def concept_order(cs, labels=None):
    return ConceptOrder(cs, labels)


def _resolve(co, selector):
    """Map an index or a reduced label to exactly one concept position."""
    cs = co.concepts
    if isinstance(selector, int) or (isinstance(selector, str) and selector.isdigit()):
        idx = int(selector)
        if not 1 <= idx <= len(cs):
            raise ValidationError(f"concept index {idx} out of range 1..{len(cs)}")
        return idx - 1
    ctx = cs.context
    hits = sorted({
        int(at[pool.index(selector)])
        for pool, at in ((ctx.objects, cs.object_concept), (ctx.attributes, cs.attribute_concept))
        if selector in pool
    })
    if not hits:
        raise ValidationError(f"{selector!r} labels no concept")
    if len(hits) > 1:
        raise ValidationError(f"{selector!r} labels several concepts: {hits}")
    return hits[0]


def filter_ideal(co, of, ideal=False):
    """Union of principal filters (or ideals) of the chosen concepts.

    Returns {concept index: reduced label string}, ascending by index; only
    the concepts returned are built.
    """
    if isinstance(of, (int, str)):
        of = [of]
    if not of:
        raise ValidationError("need at least one concept selector")
    chosen = set()
    for sel in of:
        k = _resolve(co, sel)
        chosen.update(np.flatnonzero(co.matrix[:, k] if ideal else co.matrix[k]).tolist())
    return {c.index: c.label() for c in co.concepts._take(sorted(chosen))}
