"""Relation boxes, actor hierarchies, and network reduction.

A relation box stacks the image of every word up to a chosen length, without
equating duplicates, so each actor's pattern of outgoing ties across all
slices can be compared. Orderings among actors are read off those patterns
ego by ego and cumulated into one hierarchy.
"""

import numpy as np

from .errors import ValidationError
from .netcore import MultiplexNetwork, RelationMatrix
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
        return np.stack(self.slices, axis=2)


def build_relation_box(net, k=3, include_transposes=False):
    """Stack the images of all words of length 1..k, duplicates included."""
    labels = []
    mats = []
    for word, img in _words(net, k, include_transposes):
        labels.append("".join(word))
        mats.append(img)
    return RelationBox(net.actors, labels, mats, k)


def _profiles(rbox, ego):
    """For each actor j, the set of box slices where ego reaches j."""
    e = rbox.actors.index(ego)
    profs = []
    for j in range(rbox.n):
        profs.append(frozenset(s for s in range(rbox.depth) if rbox.slices[s][e, j]))
    return profs


def person_hierarchy(rbox, ego):
    """Order among actors as seen from one ego.

    Actor j sits below actor l when ego's ties to j occur in a nonempty
    subset of the slices where ego ties to l. The result is reflexively and
    transitively closed; it need not be antisymmetric.
    """
    if ego not in rbox.actors:
        raise ValidationError(f"unknown actor {ego!r}")
    profs = _profiles(rbox, ego)
    n = rbox.n
    m = np.zeros((n, n), dtype=bool)
    for j in range(n):
        for l in range(n):
            m[j, l] = bool(profs[j]) and profs[j] <= profs[l]
    return Poset(rbox.actors, transitive_closure(m))


def cumulated_hierarchy(rbox):
    """Union of every ego's hierarchy, closed transitively."""
    n = rbox.n
    m = np.eye(n, dtype=bool)
    for ego in rbox.actors:
        m |= person_hierarchy(rbox, ego).matrix
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
    order = []
    for a in net.actors:
        cid = str(clustering[a])
        if cid not in order:
            order.append(cid)
    groups = {cid: [i for i, a in enumerate(net.actors) if str(clustering[a]) == cid] for cid in order}
    nc = len(order)
    images = []
    for s in net.slices:
        blocked = np.zeros((nc, nc), dtype=bool)
        for gi, ci in enumerate(order):
            for gj, cj in enumerate(order):
                blocked[gi, gj] = s.cells[np.ix_(groups[ci], groups[cj])].any()
        images.append(RelationMatrix(s.name, order, blocked))
    return PositionalSystem(
        order, images, {a: str(clustering[a]) for a in net.actors}
    )
