"""Formal contexts, concepts, the concept lattice, and its filters.

A concept pairs a set of objects with the set of attributes they share,
each maximal against the other. Concepts are enumerated from the attribute
columns: the column extents come first (duplicates dropped), then their
pairwise-and-beyond intersections in discovery order, and the full object
set closes the list. Labels can be reduced so that every object and every
attribute tags exactly one concept.
"""

import csv
import io

import numpy as np

from .errors import TooManyConceptsError, ValidationError, read_cap
from .netcore import _array, _check_labels, bool_product, bool_rows, containment, string_list
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
        try:
            objects, attributes = data["objects"], data["attributes"]
            incidence = data["incidence"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(
                'context JSON needs "objects", "attributes", "incidence"'
            ) from exc
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


class Concept:
    """An extent/intent pair; index is its 1-based position in the listing."""

    def __init__(self, index, extent_labels, intent_labels):
        self.index = index
        self.extent = frozenset(extent_labels)
        self.intent = frozenset(intent_labels)
        self.reduced_objects = ()
        self.reduced_attributes = ()

    def label(self, reduced=True):
        """Printable "{attributes} {objects}" tag; bare index if both empty."""
        attrs = sorted(self.reduced_attributes if reduced else self.intent)
        objs = sorted(self.reduced_objects if reduced else self.extent)
        if not attrs and not objs:
            return str(self.index)
        return "{%s} {%s}" % (", ".join(attrs), ", ".join(objs))


class Concepts:
    """The full concept listing of a context, in canonical order.

    It keeps the C x |G| extent matrix the enumeration built: row k marks
    the objects of concept k + 1. `ConceptOrder` is its `containment`.
    """

    def __init__(self, ctx, members, extent_matrix):
        self.context = ctx
        self.members = tuple(members)
        self.extent_matrix = np.asarray(extent_matrix, dtype=bool)
        self.extent_matrix.setflags(write=False)
        self._by_extent = {c.extent: c for c in self.members}
        self._by_intent = {c.intent: c for c in self.members}

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i):
        return self.members[i]

    def by_extent(self, labels):
        return self._by_extent.get(frozenset(labels))

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


def concepts(ctx, max_concepts=None):
    """Enumerate every concept of the context.

    Attribute column extents seed the list in column order; intersections
    of listed extents with the columns follow, in discovery order; the full
    object set is appended last if still missing. Extents are enumerated as
    bitsets (bit g for object g), then unpacked into the extent matrix X once;
    the intents are ~(X . ~incidence). Reduced labels are then assigned:
    each object to the smallest concept containing it, whose extent is the
    object's row of containment(incidence), and each attribute to its own
    column concept.

    Raises TooManyConceptsError as soon as the listing would exceed the cap:
    max_concepts, else RELALG_MAX_CONCEPTS, else DEFAULT_MAX_CONCEPTS.
    """
    cap = read_cap(max_concepts, "RELALG_MAX_CONCEPTS", DEFAULT_MAX_CONCEPTS)
    inc = ctx.incidence
    nobj = len(ctx.objects)
    packed = np.packbits(inc.T, axis=1, bitorder="little")
    cols = [int.from_bytes(row.tobytes(), "little") for row in packed]
    extents = list(dict.fromkeys(cols))
    seen = set(extents)
    for a in extents:  # grows while it is walked
        for e in cols:
            inter = a & e
            if inter not in seen:
                seen.add(inter)
                extents.append(inter)
                if len(extents) > cap:
                    raise TooManyConceptsError(cap)
    full = (1 << nobj) - 1
    if full not in seen:
        extents.append(full)
    if len(extents) > cap:
        raise TooManyConceptsError(cap)
    width = (nobj + 7) // 8
    raw = np.frombuffer(b"".join(e.to_bytes(width, "little") for e in extents), np.uint8)
    x = np.unpackbits(raw.reshape(len(extents), width), axis=1, count=nobj, bitorder="little") > 0
    intents = ~bool_product(x, ~inc)
    objects = np.array(ctx.objects, dtype=object)
    attributes = np.array(ctx.attributes, dtype=object)
    members = [
        Concept(k, objects[e], attributes[i]) for k, (e, i) in enumerate(zip(x, intents), 1)
    ]
    cs = Concepts(ctx, members, x)
    position = {row.tobytes(): k for k, row in enumerate(x)}
    for g, row in zip(ctx.objects, containment(inc)):
        cs[position[row.tobytes()]].reduced_objects += (g,)
    for m, col in zip(ctx.attributes, inc.T):
        cs[position[col.tobytes()]].reduced_attributes += (m,)
    return cs


class ConceptOrder(Poset):
    """Subconcept order: c <= d when the extent of c sits inside d's."""

    def __init__(self, cs, labels=None):
        if labels is None:
            labels = [f"c{c.index}" for c in cs]
        elif len(labels) != len(cs):
            raise ValidationError("need one label per concept")
        super().__init__(labels, containment(cs.extent_matrix))
        self.concepts = cs

    def meet(self, i, j):
        """The concept whose extent is the intersection of two extents."""
        want = self.concepts[i].extent & self.concepts[j].extent
        c = self.concepts.by_extent(want)
        if c is None:
            raise ValidationError("extent intersection is not a concept")
        return c

    def join(self, i, j):
        """The concept whose intent is the intersection of two intents."""
        c = self.concepts._by_intent.get(self.concepts[i].intent & self.concepts[j].intent)
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
    hits = [
        k
        for k, c in enumerate(cs)
        if selector in c.reduced_objects or selector in c.reduced_attributes
    ]
    if not hits:
        raise ValidationError(f"{selector!r} labels no concept")
    if len(hits) > 1:
        raise ValidationError(f"{selector!r} labels several concepts: {hits}")
    return hits[0]


def filter_ideal(co, of, ideal=False):
    """Union of principal filters (or ideals) of the chosen concepts.

    Returns {concept index: reduced label string}, ascending by index.
    """
    if isinstance(of, (int, str)):
        of = [of]
    if not of:
        raise ValidationError("need at least one concept selector")
    chosen = set()
    for sel in of:
        k = _resolve(co, sel)
        positions = co.downset(co.labels[k]) if ideal else co.upset(co.labels[k])
        chosen.update(positions)
    return {
        co.concepts[k].index: co.concepts[k].label() for k in sorted(chosen)
    }
