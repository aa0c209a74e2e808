"""Dyadic bundle patterns: classification, census, bond systems, statistics.

A bundle is the joint pattern of every tie type between one unordered pair
of actors. Seven classes cover all possibilities; the reciprocal-flavored
ones (reciprocal, exchange, mixed, full) are "strong" bonds, the one-way
ones (asymmetric, entrainment) are "weak" bonds.

`classify_dyad` is the only statement of the class rules. Each ordered
pair is keyed by its slice counts each way (0, 1, between or all r) and
both ways (0, 1, 2 or more). The class depends on the key alone, so
classify_dyad fills a 48-entry table, and one lookup classifies every
pair. Counts are of the smallest dtype that holds r, so none wraps.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedStatisticError, ValidationError
from .netcore import MultiplexNetwork, RelationMatrix

NULL = "null"
ASYM = "asym"
RECP = "recp"
TENT = "tent"
TXCH = "txch"
MIXD = "mixd"
FULL = "full"

CLASSES = (NULL, ASYM, RECP, TENT, TXCH, MIXD, FULL)
STRONG = frozenset({RECP, TXCH, MIXD, FULL})
WEAK = frozenset({ASYM, TENT})

# Printed census header order with display names.
_HEADER = (
    (NULL, "NULL"),
    (ASYM, "ASYMM"),
    (RECP, "RECIP"),
    (TENT, "T.ENTR"),
    (TXCH, "T.EXCH"),
    (MIXD, "MIXED"),
    (FULL, "FULL"),
)


@dataclass(frozen=True)
class DyadPattern:
    """One unordered pair with its two directed slice-name sets."""

    pair: tuple
    forward: frozenset
    backward: frozenset


def classify_dyad(pattern, nslices):
    """Assign one of the seven bundle classes to a dyad pattern.

    Null: no tie either way. Asymmetric: a single slice one way only.
    Tie entrainment: several slices one way only. Reciprocal: the same
    single slice both ways. Full: every slice both ways. Tie exchange:
    both ways present with disjoint slice sets. Everything else mixes
    one-way and mutual levels and lands in Mixed.
    """
    fwd, bwd = frozenset(pattern.forward), frozenset(pattern.backward)
    if not fwd and not bwd:
        return NULL
    if not fwd or not bwd:
        return ASYM if len(fwd | bwd) == 1 else TENT
    if len(fwd) == nslices and len(bwd) == nslices:
        return FULL
    if fwd == bwd and len(fwd) == 1:
        return RECP
    if not (fwd & bwd):
        return TXCH
    return MIXD


@dataclass(frozen=True)
class BundleCensus:
    n: int
    counts: dict  # class -> count

    @property
    def total(self):
        """Non-null bundle count (the printed BUNDLES column)."""
        return sum(v for k, v in self.counts.items() if k != NULL)

    @property
    def strong(self):
        return sum(self.counts[k] for k in STRONG)

    @property
    def weak(self):
        return sum(self.counts[k] for k in WEAK)

    def table(self):
        """Render in the census column order."""
        head = "      BUNDLES " + " ".join(disp for _, disp in _HEADER)
        row = "TOTAL " + f"{self.total:>7} " + " ".join(
            f"{self.counts[key]:>{len(disp)}}" for key, disp in _HEADER
        )
        return head + "\n" + row


def _key(f, b, both, r):
    """uint8 key, 0 to 47, of slice counts each way and both ways (scalars or arrays)."""
    f, b = (np.add(c > 0, c > 1, dtype=np.uint8) + (c == r) for c in (f, b))
    return (f * 4 + b) * 3 + np.add(both > 0, both > 1, dtype=np.uint8)


@functools.cache
def _class_table(r):
    """Class codes (indices into CLASSES) by key; keys that no pair can have stay NULL."""
    table = np.zeros(48, dtype=np.int8)
    for f, b, both in itertools.product((0, 1, 2, r), repeat=3):
        if both <= min(f, b) and f + b - both <= r:  # some pair has these counts
            pattern = DyadPattern((0, 1), range(f), [*range(both), *range(f, f + b - both)])
            table[_key(f, b, both, r)] = CLASSES.index(classify_dyad(pattern, r))
    table.setflags(write=False)
    return table


def _pair_keys(net):
    """n x n keys of the ordered pairs, and the class code of each key."""
    r = len(net.slices)
    f = np.zeros((net.n, net.n), dtype=np.min_scalar_type(r))
    both = np.zeros_like(f)
    for s in net.slices:
        f += s.cells
        both += s.cells & s.cells.T
    return _key(f, f.T, both, r), _class_table(r)


def bundle_census(net):
    """Count every unordered pair's bundle class. Diagonals are ignored."""
    keys, table = _pair_keys(net)
    per_key = np.bincount(keys.ravel(), minlength=48) - np.bincount(keys.diagonal(), minlength=48)
    counts = np.bincount(table, weights=per_key, minlength=len(CLASSES)).astype(int) // 2
    return BundleCensus(n=net.n, counts=dict(zip(CLASSES, counts.tolist())))


def _expand_bonds(bonds):
    out = set()
    for b in bonds:
        if b == "strong":
            out |= STRONG
        elif b == "weak":
            out |= WEAK
        elif b in CLASSES and b != NULL:
            out.add(b)
        else:
            raise ValidationError(f"unknown bond selector {b!r}")
    return out


def relational_system(net, bonds):
    """Keep only ties on dyads whose bundle class matches the selection.

    Returns the induced network over the actors that keep at least one tie
    (all slice names retained, possibly empty). Use pair_lists for the
    per-slice listing view of the same tie set.
    """
    if not bonds:
        raise ValidationError("bond selection must not be empty")
    wanted = [CLASSES.index(c) for c in _expand_bonds(bonds)]
    keys, table = _pair_keys(net)
    keep = np.isin(table, wanted).take(keys)
    np.fill_diagonal(keep, False)
    idx = np.flatnonzero(keep.any(axis=1))
    actors = [net.actors[i] for i in idx]
    keep = keep[idx][:, idx]
    return MultiplexNetwork(
        actors, [RelationMatrix(s.name, actors, s.cells[idx][:, idx] & keep) for s in net.slices]
    )


def pair_lists(system):
    """Per-slice "i, j" tie listings of a relational system."""
    return {s.name: [f"{i}, {j}" for i, j in s.ties()] for s in system.slices}


@dataclass(frozen=True)
class BundleStatistics:
    strong: int
    weak: int
    null: int
    cohesion: float
    reciprocity: float


def cohesion_reciprocity(census):
    """Group cohesion and the log-odds reciprocity level.

    cohesion = weak / (2 * null); reciprocity = ln((2*strong/weak)/cohesion).
    Natural logarithm. Undefined when there are no weak bonds or no null
    dyads, and the error names the zero term.
    """
    strong, weak = census.strong, census.weak
    null = census.counts[NULL]
    if strong == 0:
        raise UndefinedStatisticError("strong bond")
    if weak == 0:
        raise UndefinedStatisticError("weak bond")
    if null == 0:
        raise UndefinedStatisticError("null dyad")
    cohesion = weak / (2.0 * null)
    coherence = 2.0 * strong / weak
    reciprocity = math.log(coherence / cohesion)
    return BundleStatistics(
        strong=strong, weak=weak, null=null, cohesion=cohesion, reciprocity=reciprocity
    )


def census_from_counts(n, null=0, asym=0, recp=0, tent=0, txch=0, mixd=0, full=0):
    """Build a census from bare counts (for published tables without raw data)."""
    counts = {
        NULL: null, ASYM: asym, RECP: recp, TENT: tent,
        TXCH: txch, MIXD: mixd, FULL: full,
    }
    if sum(counts.values()) != math.comb(n, 2):
        raise ValidationError(
            f"counts sum to {sum(counts.values())}, expected C({n},2) = {math.comb(n, 2)}"
        )
    return BundleCensus(n=n, counts=counts)
