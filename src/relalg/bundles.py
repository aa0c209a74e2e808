"""Dyadic bundle patterns: classification, census, bond systems, statistics.

A bundle is the joint pattern of every tie type between one unordered pair
of actors. Seven classes cover all possibilities; the reciprocal-flavored
ones (reciprocal, exchange, mixed, full) are "strong" bonds, the one-way
ones (asymmetric, entrainment) are "weak" bonds.

`classify_dyad` is the specification. The census and the bond systems
classify every pair at once from three counts per ordered pair (i, j): f,
the slices with i -> j; b = f transposed; and both, the slices with ties
both ways. classify_dyad's rules, in its order, become masks: null when
f = b = 0; asymmetric or entrainment when one side is 0 and the other 1 or
more; full when f = b = r; reciprocal when f = b = both = 1; exchange when
both = 0; mixed otherwise. Counts are of the smallest dtype that holds r,
so every work array keeps one byte a cell below 256 slices.
"""

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


def _pair_classes(net):
    """n x n int8 array of class codes (indices into CLASSES), symmetric."""
    r = len(net.slices)
    f = np.zeros((net.n, net.n), dtype=np.min_scalar_type(r))
    both = np.zeros_like(f)
    for s in net.slices:
        f += s.cells
        both += s.cells & s.cells.T
    hi, lo = np.maximum(f, f.T), np.minimum(f, f.T)
    codes = np.full(f.shape, CLASSES.index(MIXD), dtype=np.int8)
    # classify_dyad's rules in reverse, so the first rule that holds wins
    codes[both == 0] = CLASSES.index(TXCH)
    codes[(hi == 1) & (both == 1)] = CLASSES.index(RECP)
    codes[lo == r] = CLASSES.index(FULL)
    codes[(lo == 0) & (hi > 1)] = CLASSES.index(TENT)
    codes[(lo == 0) & (hi == 1)] = CLASSES.index(ASYM)
    codes[hi == 0] = CLASSES.index(NULL)
    return codes


def bundle_census(net):
    """Count every unordered pair's bundle class. Diagonals are ignored."""
    upper = ~np.tri(net.n, dtype=bool)
    counts = np.bincount(_pair_classes(net)[upper], minlength=len(CLASSES))
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
    keep = np.isin(_pair_classes(net), wanted)
    np.fill_diagonal(keep, False)
    idx = np.flatnonzero(keep.any(axis=1))
    actors = [net.actors[i] for i in idx]
    sub = np.ix_(idx, idx)
    return MultiplexNetwork(
        actors, [RelationMatrix(s.name, actors, s.cells[sub] & keep[sub]) for s in net.slices]
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
