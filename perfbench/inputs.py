"""Seeded inputs for the benchmark workloads.

Every generator draws from a numpy Generator made from the run's --seed, so
the same seed gives the same inputs, and returns plain numpy arrays and
labels; the workloads wrap them into library objects. Networks near a given
closure order, and contexts near a given concept count, are picked from a
fixed number of seeded candidates, counted by the benchmark's own closure
and extent enumeration, so that neither a workload's cost nor its set-up
time changes much from one seed to the next.
"""

import numpy as np

# Orders counted past target + ORDER_MARGIN all read as target + ORDER_MARGIN + 1.
ORDER_MARGIN = 20


def labels(prefix, n):
    return [f"{prefix}{i}" for i in range(n)]


def closure_order(letters, cap):
    """Distinct images of all nonempty words over the letters, or cap + 1.

    Independent of the library: a breadth-first search that multiplies the
    whole frontier by each letter in one int64 product, keys images by
    their bytes, and stops as soon as the count passes cap.
    """
    letters = [np.asarray(m, dtype=np.int64) for m in letters]
    seen = set()
    frontier = []
    for m in letters:
        if m.tobytes() not in seen:
            seen.add(m.tobytes())
            frontier.append(m)
    while frontier:
        stack = np.stack(frontier)
        frontier = []
        for m in letters:
            for prod in ((stack @ m) > 0).astype(np.int64):
                key = prod.tobytes()
                if key not in seen:
                    seen.add(key)
                    if len(seen) > cap:
                        return cap + 1
                    frontier.append(prod)
    return len(seen)


def nearest_order(rng, n, nslices, p, target, count, pool):
    """The count networks, of pool random ones, whose order is nearest target.

    Every call draws and closes all pool candidates, so its cost does not
    hang on how soon the seed hits the target; ties go to the earlier draw.
    """
    cands = [[rng.random((n, n)) < p for _ in range(nslices)] for _ in range(pool)]
    dist = [abs(closure_order(mats, target + ORDER_MARGIN) - target) for mats in cands]
    return [cands[i] for i in sorted(range(pool), key=dist.__getitem__)[:count]]


def random_slices(rng, n, nslices, p):
    return [rng.random((n, n)) < p for _ in range(nslices)]


def planted_camps(rng, n, p, flips=0):
    """Positive and negative tie matrices over two planted camps.

    Ties inside a camp are positive and ties across camps negative, so the
    network is balanced; each flip turns one existing tie to the other sign,
    which breaks balance whenever the tie lies on a cycle.
    """
    camp = rng.integers(0, 2, n)
    ties = rng.random((n, n)) < p
    np.fill_diagonal(ties, False)
    same = camp[:, None] == camp[None, :]
    pos = ties & same
    neg = ties & ~same
    rows, cols = np.nonzero(ties)
    for k in rng.choice(len(rows), size=flips, replace=False):
        i, j = rows[k], cols[k]
        pos[i, j], neg[i, j] = neg[i, j], pos[i, j]
    return pos, neg


def all_extents(inc):
    """Every concept extent of an incidence matrix, independent of the library:
    the closure of the column extents under intersection plus the full
    object set, in Python-int bitsets."""
    cols = [sum(1 << int(i) for i in np.nonzero(inc[:, j])[0]) for j in range(inc.shape[1])]
    found = set(cols) | {(1 << inc.shape[0]) - 1}
    todo = list(found)
    while todo:
        e = todo.pop()
        for c in cols:
            x = e & c
            if x not in found:
                found.add(x)
                todo.append(x)
    return found


def context_near(rng, n_objects, n_attributes, p, target, pool):
    """The random incidence matrix, of pool drawn, whose concept count is nearest target."""
    cands = [rng.random((n_objects, n_attributes)) < p for _ in range(pool)]
    return min(cands, key=lambda inc: abs(len(all_extents(inc)) - target))
