"""Signed matrices and structural balance over valence semirings.

Ties carry one of five letters: p (positive), n (negative), o (absent),
a (ambivalent), and, in cluster mode only, q for the product of two
negatives. Walk accumulation is ordinary matrix algebra with the semiring's
tables in place of + and *, so revisiting nodes is allowed; products fold
left to right along a walk.

The evaluator works on letter codes, each letter's index in VALENCES as a
uint8. A semiring's + and * become 5 x 5 lookup arrays derived from its own
letter tables, which stay the specification that verify_semiring checks;
the fuse rule of the symmetric closure is one more such array. A sum or a
fusion is then one whole-array gather, a product one boolean product of
letter planes, and the closure O(log n) products, squaring its partial sum.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ComputationError, NonConvergenceError, ValidationError
from .netcore import _array, _check_labels, bool_product, connected_components

VALENCES = ("p", "o", "n", "a", "q")
_CODE = {v: i for i, v in enumerate(VALENCES)}
_LETTERS = np.array(VALENCES, dtype="<U1")


def _lut(table):
    """A letter table {(x, y): z} as a code-indexed lookup array."""
    out = np.zeros((len(VALENCES), len(VALENCES)), dtype=np.uint8)
    for (x, y), z in table.items():
        out[_CODE[x], _CODE[y]] = _CODE[z]
    return out


class SignedMatrix:
    """Actor-by-actor valence letters, their codes (indices in VALENCES, as
    uint8) and the ordered set of letters used."""

    def __init__(self, actors, cells):
        self.actors = _check_labels(actors)
        arr = _array(cells, str)
        n = len(self.actors)
        if arr is None or arr.shape != (n, n):
            raise ValidationError("signed matrix must be square over the actors")
        codes = np.full(arr.shape, len(VALENCES), dtype=np.uint8)
        for c, v in enumerate(VALENCES):
            codes[arr == v] = c
        bad = arr[codes == len(VALENCES)]
        if bad.size:
            raise ValidationError(f"unknown valence letters: {sorted(set(bad.tolist()))}")
        codes.setflags(write=False)
        self.codes = codes
        self.cells = _LETTERS[codes]
        self.cells.setflags(write=False)

    @property
    def n(self):
        return len(self.actors)

    @property
    def val(self):
        present = np.bincount(self.codes.ravel(), minlength=len(VALENCES))
        return [v for v, k in zip(VALENCES, present) if k]

    def __eq__(self, other):
        if not isinstance(other, SignedMatrix):
            return NotImplemented
        return self.actors == other.actors and bool((self.cells == other.cells).all())

    def __hash__(self):
        return hash((self.actors, self.cells.tobytes()))

    def to_dict(self):
        return {
            "actors": list(self.actors),
            "val": self.val,
            "cells": [list(row) for row in self.cells],
        }


def make_signed(positive, negative):
    """Combine a positive and a negative tie matrix into one letter matrix."""
    if positive.actors != negative.actors:
        raise ValidationError("positive and negative parts must share actors")
    pos = np.asarray(positive.cells, dtype=bool)
    neg = np.asarray(negative.cells, dtype=bool)
    out = np.full(pos.shape, "o", dtype="<U1")
    out[pos & ~neg] = "p"
    out[neg & ~pos] = "n"
    out[pos & neg] = "a"
    return SignedMatrix(positive.actors, out)


@dataclass(frozen=True)
class SemiringSpec:
    """Addition and multiplication tables over a valence carrier.

    Derived once from the tables: `add_lut`, + as a code-indexed array, and
    over the codes X of the carrier's nonzero letters (`nonzero`), `masks[k,
    y, m]`, whether X[k] * y = X[m], and `sums[bits]`, the sum of the X[m]
    whose bit m is set (zero for none).
    """

    mode: str
    carrier: tuple
    add_table: dict
    mul_table: dict
    zero: str = "o"
    one: str = "p"
    add_lut: np.ndarray = field(init=False, repr=False, compare=False)
    nonzero: np.ndarray = field(init=False, repr=False, compare=False)
    masks: np.ndarray = field(init=False, repr=False, compare=False)
    sums: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        add, mul = _lut(self.add_table), _lut(self.mul_table)
        xs = np.array([_CODE[v] for v in self.carrier if v != self.zero], dtype=np.uint8)
        masks = np.zeros((len(xs), len(VALENCES), len(xs)), dtype=bool)
        for y in self.carrier:
            masks[:, _CODE[y]] = mul[xs, _CODE[y], None] == xs
        sums = np.full(1 << len(xs), _CODE[self.zero], dtype=np.uint8)
        for bits in range(1, len(sums)):
            low = (bits & -bits).bit_length() - 1
            sums[bits] = add[sums[bits & (bits - 1)], xs[low]]
        for name, value in dict(add_lut=add, nonzero=xs, masks=masks, sums=sums).items():
            object.__setattr__(self, name, value)

    def add(self, x, y):
        return self.add_table[(x, y)]

    def mul(self, x, y):
        return self.mul_table[(x, y)]


def _build(carrier, rules):
    """Fill a full carrier x carrier table from sparse symmetric rules."""
    table = {}
    for x in carrier:
        for y in carrier:
            if (x, y) in rules:
                table[(x, y)] = rules[(x, y)]
            elif (y, x) in rules:
                table[(x, y)] = rules[(y, x)]
            else:
                raise ValueError(f"no rule for {(x, y)}")
    return table


def _spec(mode, carrier, add, mul):
    """A semiring whose tables are its own rules over the ones all share."""
    base_add = {("p", "n"): "a"}
    base_mul = {("n", "a"): "a", ("a", "a"): "a"}
    for x in carrier:
        base_add[("o", x)] = x              # absent is neutral in addition
        base_add[(x, x)] = x
        base_mul[("o", x)] = "o"            # absent absorbs products
        base_mul[("p", x)] = x              # positive is the multiplicative unit
        base_add[("a", x)] = "a"            # ambivalence absorbs sums
    add = _build(carrier, {**base_add, **add})
    return SemiringSpec(mode, carrier, add, _build(carrier, {**base_mul, **mul}))


BALANCE = _spec("balance", ("p", "o", "n", "a"), {}, {("n", "n"): "p"})
CLUSTER = _spec(
    "cluster",
    ("p", "o", "n", "a", "q"),
    # p+q merges into q: a pair of antagonists and a friend of both can
    # coexist in a clustering, so the double-negative verdict prevails
    # rather than collapsing to ambivalence (keeps + distributive with *)
    {("p", "q"): "q", ("n", "q"): "a"},
    {("n", "n"): "q", ("n", "q"): "n", ("q", "q"): "q", ("q", "a"): "a"},
)


def verify_semiring(spec):
    """Exhaustively assert the semiring laws; raises on any failure."""
    c = spec.carrier
    problems = []
    for x in c:
        if spec.add(spec.zero, x) != x or spec.add(x, spec.zero) != x:
            problems.append(f"o not neutral in + at {x}")
        if spec.mul(spec.zero, x) != spec.zero or spec.mul(x, spec.zero) != spec.zero:
            problems.append(f"o not absorbing in * at {x}")
        if spec.mul(spec.one, x) != x or spec.mul(x, spec.one) != x:
            problems.append(f"p not neutral in * at {x}")
        if x != spec.zero and (spec.add("a", x) != "a" or spec.add(x, "a") != "a"):
            problems.append(f"a not absorbing in + at {x}")
    for x in c:
        for y in c:
            if spec.add(x, y) != spec.add(y, x):
                problems.append(f"+ not commutative at {x},{y}")
            for z in c:
                if spec.add(spec.add(x, y), z) != spec.add(x, spec.add(y, z)):
                    problems.append(f"+ not associative at {x},{y},{z}")
                if spec.mul(spec.mul(x, y), z) != spec.mul(x, spec.mul(y, z)):
                    problems.append(f"* not associative at {x},{y},{z}")
                if spec.mul(x, spec.add(y, z)) != spec.add(spec.mul(x, y), spec.mul(x, z)):
                    problems.append(f"left distributivity fails at {x},{y},{z}")
                if spec.mul(spec.add(x, y), z) != spec.add(spec.mul(x, z), spec.mul(y, z)):
                    problems.append(f"right distributivity fails at {x},{y},{z}")
    if problems:
        raise AssertionError("; ".join(sorted(set(problems))))
    return True


def _fuse_table():
    """The fuse rule of symmetric_closure as a lookup array."""
    rules = {
        ("p", "n"): "a",
        ("p", "a"): "p",
        ("n", "a"): "n",
        ("p", "q"): "a",
        ("n", "q"): "a",
        ("a", "q"): "a",
    }
    for x in VALENCES:
        rules[(x, x)] = x
        rules[("o", x)] = x
    return _lut(_build(VALENCES, rules))


_FUSE = _fuse_table()


def symmetric_closure(s):
    """Fuse each dyad's two directions into one symmetric valence.

    Any letter beats absence; a pure sign beats ambivalence; opposite pure
    signs fuse to ambivalence.
    """
    c = s.codes
    return SignedMatrix(s.actors, _LETTERS[_FUSE[c, c.T]])


def _product(a, b, spec):
    """Semiring product of two n x n code matrices as one boolean product.

    Row i of the left operand marks, for each nonzero letter x and middle
    actor l, whether a[i, l] = x; column (j, z) of the right operand marks
    whether x * b[l, j] = z. Their product marks, for each nonzero z, the
    cells (i, j) that some l values z. + is idempotent, commutative and
    associative, so a cell is the sum of the letters that hit it.
    """
    n, nx = len(a), len(spec.nonzero)
    left = (a[:, None, :] == spec.nonzero[:, None]).reshape(n, nx * n)
    right = np.take(spec.masks, b, axis=1).reshape(nx * n, n * nx)
    hits = bool_product(left, right).reshape(n, n, nx)
    return spec.sums[hits.view(np.uint8) @ (1 << np.arange(nx, dtype=np.uint8))]


def _walk_sums(s, spec, semipaths, steps, square=False):
    """Codes of q after up to `steps` steps from q = m, and whether q is stable.

    m is the matrix, symmetrized first with semipaths. A step sets q <- q + q*m,
    or q <- q + q*q with square; + is idempotent and * distributes over it, so
    t steps sum m^1 .. m^(t+1), or m^1 .. m^(2^t). Once a step leaves q
    unchanged, every later step does too, and the loop stops there.
    """
    extra = [v for v in s.val if v not in spec.carrier]
    if extra:
        raise ComputationError(f"letters {extra} are outside the {spec.mode} carrier")
    m = s.codes
    if semipaths:
        m = _FUSE[m, m.T]
    q = m
    for _ in range(steps):
        nxt = spec.add_lut[q, _product(q, q if square else m, spec)]
        if np.array_equal(nxt, q):
            return q, True
        q = nxt
    return q, False


def semiring_powers(s, spec=BALANCE, k=2, semipaths=True):
    """Accumulate walks of length 1..k under the semiring.

    With semipaths the matrix is symmetrized first, so tie direction is
    ignored; k=1 then returns the symmetric closure itself. The sum stops
    growing once it is stable, so a large k costs one product per walk length
    up to the length where it settles.
    """
    if k < 1:
        raise ValidationError("k must be at least 1")
    q, _ = _walk_sums(s, spec, semipaths, k - 1)
    return SignedMatrix(s.actors, _LETTERS[q])


def balance_closure(s, spec=BALANCE, semipaths=True):
    """Accumulate walk valences until the matrix stops changing.

    Squaring finds a sum stable from walk length L at step ceil(log2 L) + 1;
    the bound allows that for every L up to n * |carrier|.
    """
    limit = (max(1, s.n * len(spec.carrier)) - 1).bit_length() + 1
    q, stable = _walk_sums(s, spec, semipaths, limit, square=True)
    if not stable:
        raise NonConvergenceError(f"no stable matrix within {limit} doubling steps")
    return SignedMatrix(s.actors, _LETTERS[q])


@dataclass(frozen=True)
class BalanceVerdict:
    verdict: str                 # balanced | clusterable-only | imbalanced
    witness: str = None          # an actor whose diagonal breaks the rule
    groups: tuple = ()           # plus-set partition when one exists

    def __bool__(self):
        return self.verdict == "balanced"


def is_balanced(q):
    """Read the verdict off the diagonal of a closure matrix.

    All-positive-or-absent diagonals mean balance; a q diagonal can still be
    clustered into more than two antagonistic camps; n or a on the diagonal
    certifies imbalance. Groups are the components tied by positive cells.
    """
    diag = np.diagonal(q.cells)
    bad = np.flatnonzero((diag == "n") | (diag == "a"))
    if bad.size:
        return BalanceVerdict("imbalanced", q.actors[bad[0]])
    groups = tuple(
        tuple(q.actors[i] for i in comp) for comp in connected_components(q.cells == "p")
    )
    dn = np.flatnonzero(diag == "q")
    if dn.size:
        return BalanceVerdict("clusterable-only", q.actors[dn[0]], groups)
    return BalanceVerdict("balanced", None, groups)
