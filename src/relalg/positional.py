"""Relation boxes, actor hierarchies, and network reduction.

A relation box stacks the image of every word up to a chosen length, without
equating duplicates, so each actor's pattern of outgoing ties across all
slices can be compared. Orderings among actors are read off those patterns
ego by ego and cumulated into one hierarchy.
"""

import numpy as np

from .errors import ValidationError
from .netcore import MultiplexNetwork, RelationMatrix, bool_product, containment
from .semigroup import Poset, _words, transitive_closure


class RelationBox:
    """Every word relation up to length k, kept in generation order."""

    def __init__(self, actors, word_labels, slices, k):
        self.actors = tuple(actors)
        self.word_labels = tuple(word_labels)
        self.slices = tuple(slices)            # boolean matrices, one per word
        self.k = k

    @property
    def n(self):
        return len(self.actors)

    @property
    def depth(self):
        return len(self.slices)

    def slice_array(self):
        """The box as an n x n x depth boolean array."""
        if not self.slices:
            return np.zeros((self.n, self.n, 0), dtype=bool)
        return np.stack(self.slices, axis=2)


def build_relation_box(net, k=3, include_transposes=False):
    """Stack the images of all words of length 1..k, duplicates included."""
    images, words = _words(net, k, include_transposes)
    labels = [word for word, _ in words]
    return RelationBox(net.actors, labels, [images[i] for _, i in words], k)


def _ego_order(profile):
    """j <= l when ego's nonempty profile row j lies inside row l.

    `profile` is ego's actor x slice plane of the box: row j holds the
    slices where ego reaches j.
    """
    m = containment(profile)
    m[~profile.any(axis=1)] = False
    return m


def person_hierarchy(rbox, ego):
    """Order among actors as seen from one ego.

    Actor j sits below actor l when ego's ties to j occur in a nonempty
    subset of the slices where ego ties to l. The result is reflexively and
    transitively closed; it need not be antisymmetric.
    """
    if ego not in rbox.actors:
        raise ValidationError(f"unknown actor {ego!r}")
    profile = rbox.slice_array()[rbox.actors.index(ego)]
    return Poset(rbox.actors, transitive_closure(_ego_order(profile)))


def cumulated_hierarchy(rbox):
    """Union of every ego's hierarchy, closed transitively.

    The closure of a union of closures is the closure of the union, so the
    egos' orders are joined unclosed and closed once.
    """
    m = np.eye(rbox.n, dtype=bool)
    for profile in rbox.slice_array():
        m |= _ego_order(profile)
    return Poset(rbox.actors, transitive_closure(m))


class PositionalSystem:
    """A network collapsed onto classes of structurally equated actors."""

    def __init__(self, class_labels, images, source_classes):
        self.class_labels = tuple(class_labels)
        self.images = tuple(images)            # RelationMatrix per slice
        self.source_classes = dict(source_classes)   # actor -> class label

    def as_network(self):
        return MultiplexNetwork(self.class_labels, list(self.images))


def reduce_network(net, clustering):
    """Collapse actors into classes; a class tie exists when any member has it.

    `clustering` maps every actor to a class id. Classes are ordered by the
    first actor (in network order) belonging to them, and labeled by the id.
    """
    missing = [a for a in net.actors if a not in clustering]
    if missing:
        raise ValidationError(f"clustering misses actors: {missing}")
    ids = [str(clustering[a]) for a in net.actors]
    column = {c: k for k, c in enumerate(dict.fromkeys(ids))}
    order = list(column)
    member = np.zeros((net.n, len(order)), dtype=bool)    # actor x class
    member[np.arange(net.n), [column[c] for c in ids]] = True
    images = [
        RelationMatrix(s.name, order, bool_product(bool_product(member.T, s.cells), member))
        for s in net.slices
    ]
    return PositionalSystem(order, images, dict(zip(net.actors, ids)))
