"""DOT emission for order diagrams, multiplication graphs, and networks.

Only structure is emitted (nodes, edges, rank direction); layout stays with
the DOT renderer. Output is deterministic: nodes follow input order and
edges are sorted, so identical inputs give identical bytes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .netcore import bool_product

_PALETTE = (
    "red", "blue", "forestgreen", "orange",
    "purple", "brown", "deepskyblue", "magenta",
)


@dataclass(frozen=True)
class DotDocument:
    kind: str
    text: str

    def __str__(self):
        return self.text


def _q(label):
    return '"%s"' % str(label).replace('"', r'\"')


def hasse_dot(po, drop_incomparable=False):
    """Cover relations of a partial order, drawn bottom to top.

    Mutually ordered distinct elements have no diagram, so antisymmetry
    violations are rejected. With drop_incomparable, elements comparable to
    nothing else are left out.
    """
    violations = po.antisymmetry_violations()
    if violations:
        raise ValidationError(f"order contains cycles: {violations}")
    m = np.asarray(po.matrix, dtype=bool)
    strict = m & ~np.eye(len(po.labels), dtype=bool)
    covers = strict & ~bool_product(strict, strict)
    keep = np.arange(len(po.labels))
    if drop_incomparable:
        keep = keep[strict.any(axis=1) | strict.any(axis=0)]
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=plaintext];"]
    lines += [f"  {_q(po.labels[i])};" for i in keep]
    rows, cols = np.nonzero(covers[np.ix_(keep, keep)])
    lines += [
        f"  {_q(po.labels[keep[i]])} -> {_q(po.labels[keep[j]])};"
        for i, j in zip(rows, cols)
    ]
    lines.append("}")
    return DotDocument("hasse", "\n".join(lines) + "\n")


def cayley_dot(sg):
    """Right-multiplication graph: one edge color per generator."""
    gens = sg.generator_elements()
    if not gens:
        raise ValidationError("semigroup carries no generator information")
    lines = ["digraph cayley {", "  rankdir=LR;"]
    for k, (letter, _) in enumerate(gens):
        lines.append(f"  // generator {letter}: {_PALETTE[k % len(_PALETTE)]}")
    for lbl in sg.st:
        lines.append(f"  {_q(lbl)};")
    for x in range(sg.order):
        for k, (letter, g) in enumerate(gens):
            y = sg.product(x, g)
            color = _PALETTE[k % len(_PALETTE)]
            lines.append(
                f"  {_q(sg.st[x])} -> {_q(sg.st[y])} "
                f'[color={color}, label={_q(letter)}];'
            )
    lines.append("}")
    return DotDocument("cayley", "\n".join(lines) + "\n")


def multigraph_dot(net):
    """All slices of a network in one digraph, one color per slice."""
    lines = ["digraph multigraph {"]
    for k, s in enumerate(net.slices):
        lines.append(f"  // slice {s.name}: {_PALETTE[k % len(_PALETTE)]}")
    for a in net.actors:
        lines.append(f"  {_q(a)};")
    for k, s in enumerate(net.slices):
        color = _PALETTE[k % len(_PALETTE)]
        for i, j in s.ties():
            lines.append(f"  {_q(i)} -> {_q(j)} [color={color}, label={_q(s.name)}];")
    lines.append("}")
    return DotDocument("multigraph", "\n".join(lines) + "\n")


def bipartite_dot(ctx):
    """Objects and attributes as the two node shapes, ties undirected."""
    lines = ["graph bipartite {", "  node [shape=box];"]
    for g in ctx.objects:
        lines.append(f"  {_q(g)};")
    lines.append("  node [shape=ellipse];")
    for m in ctx.attributes:
        lines.append(f"  {_q(m)};")
    for i, j in np.argwhere(ctx.incidence).tolist():
        lines.append(f"  {_q(ctx.objects[i])} -- {_q(ctx.attributes[j])};")
    lines.append("}")
    return DotDocument("bipartite", "\n".join(lines) + "\n")
