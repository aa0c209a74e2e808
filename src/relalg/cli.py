"""Command-line front end.

Networks, semigroups, posets, and contexts travel as JSON files (contexts
also as CSV cross-tables). Tables print in the same row and column order
the library uses internally: actor input order, string set order, and
concept index order. Each command loads and computes before it prints, so
a failed run prints nothing; input problems exit 2, computational limits 3.
"""

import json
import os

# Before numpy loads: relalg makes no BLAS call, and an idle OpenBLAS pool only spins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import click

from . import __version__
from . import dot as dotmod
from .bundles import bundle_census, cohesion_reciprocity, pair_lists, relational_system
from .decomp import decompose, factorize, find_congruences
from .errors import ComputationError, ValidationError
from .fca import FormalContext, concept_order, concepts, filter_ideal
from .netcore import network_from_dict
from .positional import build_relation_box, cumulated_hierarchy, reduce_network
from .semigroup import (
    Poset,
    build_semigroup,
    equations as word_equations,
    generate_strings,
    semigroup_from_dict,
    string_partial_order,
)
from .signed import BALANCE, CLUSTER, balance_closure, is_balanced, make_signed, semiring_powers


def _read(path, parse=json.loads):
    """parse of a file's text; a file that cannot be read or parsed is bad input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


class _Input(click.ParamType):
    """A file argument, loaded by from_dict (a .csv file by from_csv, if given)."""

    name = "path"

    def __init__(self, from_dict, from_csv=None):
        self.from_dict, self.from_csv = from_dict, from_csv

    def convert(self, path, param=None, ctx=None):
        if self.from_csv and path.lower().endswith(".csv"):
            return _read(path, self.from_csv)
        return self.from_dict(_read(path))


NETWORK = _Input(network_from_dict)
SEMIGROUP = _Input(semigroup_from_dict)
POSET = _Input(Poset.from_dict)
CONTEXT = _Input(FormalContext.from_dict, FormalContext.from_csv)


class _Relalg(click.Group):
    """Reports input errors with exit status 2 and computational limits with 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValidationError, ComputationError) as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(2 if isinstance(exc, ValidationError) else 3)


def _split(spec):
    return [x.strip() for x in spec.split(",") if x.strip()]


def _print_matrix(labels, rows):
    labels = [str(lbl) for lbl in labels]
    cells = [[str(x) for x in row] for row in rows]
    widths = [max([len(lbl)] + [len(r[j]) for r in cells]) for j, lbl in enumerate(labels)]
    head = max(map(len, labels), default=0)
    click.echo(" " * head + "  " + " ".join(lbl.rjust(w) for lbl, w in zip(labels, widths)))
    for lbl, row in zip(labels, cells):
        click.echo(lbl.rjust(head) + "  " + " ".join(c.rjust(w) for c, w in zip(row, widths)))


@click.group(cls=_Relalg)
@click.version_option(version=__version__, prog_name="relalg")
def main():
    """Algebraic analysis of multiplex, signed, and two-mode networks."""


@main.command()
@click.argument("network", type=NETWORK)
@click.option("--stats", is_flag=True, help="Also print cohesion and reciprocity.")
def census(network, stats):
    """Count dyad bundle classes of a network."""
    result = bundle_census(network)
    s = cohesion_reciprocity(result) if stats else None
    click.echo(result.table())
    if stats:
        click.echo(f"cohesion: {s.cohesion:.7f}")
        click.echo(f"reciprocity: {s.reciprocity:.5f}")


@main.command()
@click.argument("network", type=NETWORK)
@click.option("--bonds", required=True, help="strong, weak, or class names (comma-separated).")
@click.option(
    "--format", "fmt", type=click.Choice(["tensor", "pairs"]), default="tensor",
    show_default=True, help="Print slice matrices or tie pair lists.",
)
def relsys(network, bonds, fmt):
    """Extract the subnetwork spanned by chosen bundle classes."""
    system = relational_system(network, _split(bonds))
    if fmt == "pairs":
        for name, pairs in pair_lists(system).items():
            click.echo(f"${name}")
            for p in pairs:
                click.echo(f"  {p}")
    else:
        for s in system.slices:
            click.echo(f"${s.name}")
            _print_matrix(system.actors, s.cells.astype(int))


@main.command()
@click.argument("network", type=NETWORK)
@click.option("--symbolic", is_flag=True, help="Label table cells by words, not indices.")
@click.option("--transposes", is_flag=True, help="Include transposed generators.")
@click.option("--max-elements", type=int, default=None, help="Closure size cap.")
@click.option("--out", type=click.Path(), default=None, help="Write the result as JSON.")
def semigroup(network, symbolic, transposes, max_elements, out):
    """Close the network relations under composition and print the table."""
    strings = generate_strings(network, include_transposes=transposes, max_elements=max_elements)
    sg = build_semigroup(strings, "symbolic" if symbolic else "numerical")
    data = sg.to_dict()
    if out:
        _write(out, json.dumps(data, indent=1))
    click.echo(f"order: {sg.order}")
    click.echo("st: " + " ".join(sg.st))
    _print_matrix(sg.st, data["table"])
    if out:
        click.echo(f"wrote {out}")


@main.command()
@click.argument("network", type=NETWORK)
@click.option("--k", default=3, show_default=True, help="Maximum word length.")
@click.option("--transposes", is_flag=True)
def equations(network, k, transposes):
    """Group words of bounded length that share an image."""
    for label, members in word_equations(network, k, include_transposes=transposes).items():
        click.echo(f"{label}: " + " ".join(members))


@main.command()
@click.argument("network", type=NETWORK)
@click.option("--transposes", is_flag=True)
def order(network, transposes):
    """Containment order among the distinct string relations."""
    po = string_partial_order(generate_strings(network, include_transposes=transposes))
    _print_matrix(po.labels, po.matrix.astype(int))


@main.command()
@click.argument("network", type=NETWORK)
@click.option("--k", default=3, show_default=True)
@click.option("--transposes", is_flag=True)
@click.option("--out", type=click.Path(), default=None, help="Write the box as JSON.")
def rbox(network, k, transposes, out):
    """Stack all word images up to length k (duplicates kept)."""
    box = build_relation_box(network, k=k, include_transposes=transposes)
    if out:
        _write(out, json.dumps({
            "actors": list(box.actors),
            "labels": list(box.word_labels),
            "slices": [[[int(x) for x in row] for row in s] for s in box.slices],
        }))
    click.echo(f"actors: {len(box.actors)}  words: {box.depth}  k: {box.k}")
    click.echo(" ".join(box.word_labels))
    if out:
        click.echo(f"wrote {out}")


@main.command()
@click.argument("network", type=NETWORK)
@click.option("--k", default=3, show_default=True)
@click.option("--transposes", is_flag=True)
def cph(network, k, transposes):
    """Cumulated actor hierarchy over the relation box."""
    po = cumulated_hierarchy(build_relation_box(network, k=k, include_transposes=transposes))
    _print_matrix(po.labels, po.matrix.astype(int))


def _parse_classes(spec):
    if "=" not in spec:
        data = _read(spec)
        if not isinstance(data, dict):
            raise ValidationError("class file must map actors to classes")
        return data
    out = {}
    for part in _split(spec):
        if "=" not in part:
            raise ValidationError(f"bad class assignment {part!r}")
        actor, cls = part.split("=", 1)
        out[actor.strip()] = cls.strip()
    return out


@main.command()
@click.argument("network", type=NETWORK)
@click.option(
    "--classes", required=True,
    help='Inline "actor=class,..." or a JSON file mapping actors to classes.',
)
def reduce(network, classes):
    """Collapse actors into classes and print the blocked image matrices."""
    system = reduce_network(network, _parse_classes(classes))
    click.echo("classes: " + " ".join(system.class_labels))
    for img in system.images:
        click.echo(f"${img.name}")
        _print_matrix(system.class_labels, img.cells.astype(int))


@main.command()
@click.argument("sg", type=SEMIGROUP, metavar="SEMIGROUP_FILE")
@click.option("--poset", "po", type=POSET, default=None)
@click.option(
    "--mode", type=click.Choice(["cc", "mca"]), default="cc", show_default=True,
    help="Pair-collapse congruences, or quotients by meet complements of atoms.",
)
def decomp(sg, po, mode):
    """Class vectors (and quotients) that decompose a multiplication table."""
    if mode == "cc":
        found = find_congruences(sg)
    elif po is None:
        raise ValidationError("mca mode needs --poset")
    else:
        found = decompose(sg, factorize(sg, po), mode="mca")
    click.echo("elements: " + " ".join(sg.st))
    for i, c in enumerate(found, start=1):
        click.echo(f"[{i}] " + " ".join(str(x) for x in c.vector))
        if mode == "mca":
            _print_matrix(c.order.labels, c.table)


@main.command()
@click.argument("network", type=NETWORK)
@click.option("--positive", required=True, help="Slice holding the positive ties.")
@click.option("--negative", required=True, help="Slice holding the negative ties.")
def signed(network, positive, negative):
    """Fold two tie matrices into one p/n/a/o letter matrix."""
    s = make_signed(network.slice(positive), network.slice(negative))
    click.echo("val: " + " ".join(s.val))
    _print_matrix(s.actors, s.cells)


@main.command()
@click.argument("network", type=NETWORK)
@click.option("--positive", required=True)
@click.option("--negative", required=True)
@click.option("--cluster", is_flag=True, help="Use the five-letter cluster semiring.")
@click.option("--paths", is_flag=True, help="Respect tie direction (no symmetrizing).")
@click.option("--k", default=2, show_default=True, help="Walk length to accumulate.")
@click.option("--closure", is_flag=True, help="Iterate to the stable matrix instead.")
def semiring(network, positive, negative, cluster, paths, k, closure):
    """Accumulate walk valences and judge balance or clusterability."""
    s = make_signed(network.slice(positive), network.slice(negative))
    spec = CLUSTER if cluster else BALANCE
    if closure:
        q = balance_closure(s, spec, semipaths=not paths)
        verdict = is_balanced(q)
    else:
        q = semiring_powers(s, spec, k=k, semipaths=not paths)
    click.echo("val: " + " ".join(q.val))
    _print_matrix(q.actors, q.cells)
    if closure:
        click.echo(f"verdict: {verdict.verdict}")
        if verdict.witness:
            click.echo(f"witness: {verdict.witness}")
        for grp in verdict.groups:
            click.echo("group: " + " ".join(grp))


def _filter_lines(co, of, ideal):
    """One "index: label" line per concept in the filter (or ideal) of those named in of."""
    return [f"{idx}: {lbl}" for idx, lbl in filter_ideal(co, _split(of), ideal=ideal).items()]


@main.command()
@click.argument("context", type=CONTEXT)
@click.option("--reduced", is_flag=True, help="Print reduced instead of full labels.")
@click.option("--order", "show_order", is_flag=True, help="Also print the concept order.")
@click.option("--filter", "filter_of", default=None, help="Concepts whose filter to take.")
@click.option("--ideal", is_flag=True, help="Take ideals instead of filters.")
def galois(context, reduced, show_order, filter_of, ideal):
    """List the concepts of a context, with order and filters on request."""
    cs = concepts(context)
    co = concept_order(cs) if show_order or filter_of else None
    picked = _filter_lines(co, filter_of, ideal) if filter_of else []
    click.echo(f"concepts: {len(cs)}")
    for c in cs:
        if reduced:
            click.echo(f"c{c.index}: {c.label(reduced=True)}")
        else:
            intent = ", ".join(sorted(c.intent))
            ext = ", ".join(sorted(c.extent))
            click.echo(f"c{c.index}: {{{intent}}} {{{ext}}}")
    if show_order:
        _print_matrix(co.labels, co.matrix.astype(int))
    for line in picked:
        click.echo(line)


@main.command("filter")
@click.argument("context", type=CONTEXT)
@click.option("--of", required=True, help="Concept indices or reduced labels, comma-separated.")
@click.option("--ideal", is_flag=True)
def filter_cmd(context, of, ideal):
    """Order filter (or ideal) generated by chosen concepts."""
    for line in _filter_lines(concept_order(concepts(context)), of, ideal):
        click.echo(line)


@main.command("dot")
@click.argument("kind", type=click.Choice(["hasse", "cayley", "multigraph", "bipartite"]))
@click.argument("input_file", type=click.Path())
@click.option("--out", type=click.Path(), default=None)
@click.option("--drop-incomparable", is_flag=True, help="hasse: omit isolated elements.")
def dot_cmd(kind, input_file, out, drop_incomparable):
    """Emit a DOT drawing of a poset, table, network, or context."""
    if kind == "hasse":
        doc = dotmod.hasse_dot(POSET.convert(input_file), drop_incomparable=drop_incomparable)
    elif kind == "cayley":
        doc = dotmod.cayley_dot(SEMIGROUP.convert(input_file))
    elif kind == "multigraph":
        doc = dotmod.multigraph_dot(NETWORK.convert(input_file))
    else:
        doc = dotmod.bipartite_dot(CONTEXT.convert(input_file))
    if out:
        _write(out, doc.text)
        click.echo(f"wrote {out}")
    else:
        click.echo(doc.text, nl=False)


if __name__ == "__main__":
    main()
