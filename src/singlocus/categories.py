"""Index categories of a decorated trivalent graph.

:func:`build_j` has one object per vertex and per edge and one arrow per
flag; :func:`build_i` splits each edge object into its flags, the two
flags of a compact edge joined by an isomorphism pair, and
:func:`collapse_functor` is the equivalence between the two.
"""

from __future__ import annotations

from itertools import chain

from . import graphs
from .errors import InvalidValue, SingLocusError, items, shown
from .record import Record


class FiniteCategory(Record):
    """A finite category given by an explicit composition table.

    ``arrows`` maps a name to ``(source, target)``; ``compose`` maps the
    composable pair ``(g, f)`` (apply f first) to the name of ``g o f``.
    Categories compare by all four fields; holding dicts, they do not hash.
    """

    objects: tuple[str, ...]
    arrows: dict[str, tuple[str, str]]
    identities: dict[str, str]
    compose: dict[tuple[str, str], str]

    def check(self) -> None:
        """Raise :class:`SingLocusError` unless the tables satisfy the
        category axioms; a missing identity or composite fails them, and so
        does an identity or arrow end that is not one of ``objects``.  Tables
        of the wrong type raise :class:`InvalidValue`: ``arrows``,
        ``identities`` or ``compose`` not a dict, ``objects`` or an arrow's
        ends not a list or tuple (of two), or a name in them that is not a
        string."""
        arrows, identities, compose = tables = self.arrows, self.identities, self.compose
        if not all(isinstance(table, dict) for table in tables):
            raise InvalidValue("arrows, identities and compose must be dicts")
        ends = {f: items(pair, 2) for f, pair in arrows.items()}
        for name in chain(items(self.objects), identities.values(), compose.values(), *ends.values()):
            if type(name) is not str:
                raise InvalidValue(f"expected a name string, got {shown(name)}")
        objects = set(self.objects)
        if set(identities) != objects:
            raise SingLocusError("identities are not one per object")
        for f, pair in ends.items():
            if not objects.issuperset(pair):
                raise SingLocusError(f"arrow {f} has an end that is not an object")
        for obj, ident in identities.items():
            if arrows.get(ident) != (obj, obj):
                raise SingLocusError(f"identity of {obj} is not an endo-arrow")
        out_of: dict[str, list[tuple[str, str]]] = {}  # source -> (arrow, target), in arrow order
        for f, (fs, ft) in arrows.items():
            if compose.get((identities.get(ft), f)) != f:
                raise SingLocusError(f"left unit fails for {f}")
            if compose.get((f, identities.get(fs))) != f:
                raise SingLocusError(f"right unit fails for {f}")
            out_of.setdefault(fs, []).append((f, ft))
        for f, (fs, ft) in arrows.items():
            for h, ht in out_of.get(ft, ()):
                hf = compose.get((h, f))
                if arrows.get(hf) != (fs, ht):
                    raise SingLocusError(f"composite {h} o {f} has wrong endpoints")
                for k, _ in out_of.get(ht, ()):
                    if compose.get((k, hf)) != compose.get((compose.get((k, h)), f)):
                        raise SingLocusError(f"associativity fails on ({k}, {h}, {f})")


def _category(
    objects: list[str], arrows: dict[str, tuple[str, str]], compose: dict[tuple[str, str], str]
) -> FiniteCategory:
    """Add an identity ``id:<obj>`` per object and the unit composites to
    the non-unit ``arrows`` and ``compose``."""
    identities = {obj: f"id:{obj}" for obj in objects}
    arrows = {**{i: (obj, obj) for obj, i in identities.items()}, **arrows}
    for f, (fs, ft) in arrows.items():
        compose[(identities[ft], f)] = f
        compose[(f, identities[fs])] = f
    return FiniteCategory(tuple(objects), arrows, identities, compose)


def build_j(g: graphs.DecoratedGraph) -> FiniteCategory:
    """The category with objects = vertices and edges, one arrow per flag."""
    vertex_of, edge_of = g.vertex_of, g.edge_of
    objects = [f"v{vi}" for vi in range(len(g.vertices))]
    objects += [f"e{ei}" for ei in range(len(g.edges))]
    arrows = {f"flag:h{h}": (f"v{vertex_of[h]}", f"e{edge_of[h]}") for h in sorted(vertex_of)}
    return _category(objects, arrows, {})


def build_i(g: graphs.DecoratedGraph) -> FiniteCategory:
    """The flag-duplicated category: the edge object split into its flags.

    Objects are the vertices and the flags (one per half-edge); there is
    an arrow per flag and a two-sided isomorphism pair per compact edge.
    The only nonidentity arrows are the flags, the isos and flag-then-iso
    (named ``flag:h<h>*<iso>``), so V + 2H + 4C arrows in all.  A flag
    object has one non-unit arrow out of it, the iso of its edge, so the
    non-unit composites are three per iso: iso o flag, inverse o iso and
    inverse o (flag-then-iso).
    """
    vertex_of = g.vertex_of
    objects = [f"v{vi}" for vi in range(len(g.vertices))]
    objects += [f"f{h}" for h in sorted(vertex_of)]
    arrows = {f"flag:h{h}": (f"v{vertex_of[h]}", f"f{h}") for h in sorted(vertex_of)}
    compose: dict[tuple[str, str], str] = {}
    for ei, e in g.compact_edges():
        fwd, rev = f"iso:e{ei}:fwd", f"iso:e{ei}:rev"
        for (h, h_out), iso, inverse in ((e.ends, fwd, rev), (e.ends[::-1], rev, fwd)):
            flag, word = f"flag:h{h}", f"flag:h{h}*{iso}"
            arrows[iso] = (f"f{h}", f"f{h_out}")
            arrows[word] = (f"v{vertex_of[h]}", f"f{h_out}")
            compose[(iso, flag)] = word
            compose[(inverse, iso)] = f"id:f{h}"
            compose[(inverse, word)] = flag
    return _category(objects, arrows, compose)


def collapse_functor(g: graphs.DecoratedGraph) -> dict[str, str]:
    """Object map of the equivalence from :func:`build_i` to :func:`build_j`,
    sending each flag object to its edge object.  Like both categories it
    reads :attr:`DecoratedGraph.edge_of`, so an invalid graph raises
    :class:`InvalidGraph`."""
    mapping = {f"v{vi}": f"v{vi}" for vi in range(len(g.vertices))}
    for h, ei in g.edge_of.items():
        mapping[f"f{h}"] = f"e{ei}"
    return mapping
