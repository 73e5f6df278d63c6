"""The local models of the gluing data and the index categories of a
decorated trivalent graph, which no command runs: the tests use them as the
descent oracle and check the group and category axioms on them.

The edge model is the graded Laurent ring k[x^{+-1}, u^{+-1}] with
deg(x) = 0 and deg(u) = 2; its graded automorphisms act on the invertible
degree-two elements (the 2-periodic structures).  The vertex model's
autoequivalence group is (k^x)^3 x| S3 times a shift, acting on a
k^x-torsor of 2-periodic structures.  The ground field is Q throughout,
so every scalar is an exact Fraction.

:func:`build_j` has one object per vertex and per edge and one arrow per
flag; :func:`build_i` splits each edge object into its flags, the two
flags of a compact edge joined by an isomorphism pair, and
:func:`collapse_functor` is the equivalence between the two.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from singlocus import graphs
from singlocus.errors import InvalidValue, Record, SingLocusError, integer, integers, items, nonzero, shown


class TriangleConstraintViolated(SingLocusError):
    """A pants presentation whose triangle scalar products are not 1."""


class Monomial(Record):
    """c * x^a * u^b with c nonzero; the degree is 2b."""

    coeff: Fraction
    x_exp: int
    u_exp: int

    def __post_init__(self):
        object.__setattr__(self, "coeff", nonzero(self.coeff, "coefficient"))
        object.__setattr__(self, "x_exp", integer(self.x_exp))
        object.__setattr__(self, "u_exp", integer(self.u_exp))

    @property
    def degree(self) -> int:
        return 2 * self.u_exp


class TwoPerE(Record):
    """A 2-periodic structure on the edge model: c * x^n * u."""

    coeff: Fraction
    x_exp: int

    def __post_init__(self):
        object.__setattr__(self, "coeff", nonzero(self.coeff, "coefficient"))
        object.__setattr__(self, "x_exp", integer(self.x_exp))


class EdgeAut(Record):
    """A graded automorphism (x, u) -> (lam_x x^eps, lam_u x^n u), plus a shift bit.

    The pair (eps, n) is the discrete part, an element of the group H of
    integer matrices [[eps, n], [0, 1]].
    """

    eps: int
    n: int
    lam_x: Fraction
    lam_u: Fraction
    shift: int = 0

    def __post_init__(self):
        object.__setattr__(self, "eps", integer(self.eps))
        if self.eps not in (-1, 1):
            raise InvalidValue("eps must be +1 or -1")
        object.__setattr__(self, "n", integer(self.n))
        object.__setattr__(self, "lam_x", nonzero(self.lam_x, "lam_x"))
        object.__setattr__(self, "lam_u", nonzero(self.lam_u, "lam_u"))
        object.__setattr__(self, "shift", integer(self.shift) % 2)

    def discrete_part(self) -> tuple[int, int]:
        return (self.eps, self.n)


EDGE_IDENTITY = EdgeAut(1, 0, Fraction(1), Fraction(1), 0)


def compose_edge_aut(outer: EdgeAut, inner: EdgeAut) -> EdgeAut:
    """outer o inner as ring maps: apply inner's substitution, then outer's.

    Derivation: inner sends x to lam_x,i x^eps_i, and applying outer to
    that expression multiplies exponents through outer's substitution.
    """
    eps = outer.eps * inner.eps
    n = outer.eps * inner.n + outer.n
    lam_x = inner.lam_x * outer.lam_x**inner.eps
    lam_u = inner.lam_u * outer.lam_x**inner.n * outer.lam_u
    return EdgeAut(eps, n, lam_x, lam_u, outer.shift ^ inner.shift)


def edge_aut_inverse(a: EdgeAut) -> EdgeAut:
    eps = a.eps
    n = -a.eps * a.n
    lam_x = a.lam_x ** (-a.eps)
    lam_u = a.lam_x ** (a.eps * a.n) / a.lam_u
    return EdgeAut(eps, n, lam_x, lam_u, a.shift)


def act_on_two_per_e(a: EdgeAut, t: TwoPerE) -> TwoPerE:
    """Substitute: c x^m u  ->  c lam_x^m lam_u x^{eps m + n} u.

    The shift bit acts trivially on 2-periodic structures.
    """
    return TwoPerE(t.coeff * a.lam_x**t.x_exp * a.lam_u, a.eps * t.x_exp + a.n)


def stabilizer_check_e(a: EdgeAut, t: TwoPerE) -> bool:
    return act_on_two_per_e(a, t) == t


def transporter_unit(t1: TwoPerE, t2: TwoPerE) -> Monomial:
    """The unique degree-zero unit c x^m with t2 = (c x^m) * t1."""
    return Monomial(t2.coeff / t1.coeff, t2.x_exp - t1.x_exp, 0)


# ---------------------------------------------------------------------------
# Vertex model
# ---------------------------------------------------------------------------


class TwoPerV(Record):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", nonzero(self.value, "2-periodic structure"))


class VertexAut(Record):
    """(lams, perm, shift) in ((Q^x)^3 x| S3) x Z/2.

    ``perm`` is a permutation of (0, 1, 2) with perm[i] the image of i.
    The semidirect rule: (lam, sigma)(mu, tau) = (lam * sigma(mu), sigma tau)
    where sigma permutes positions, (sigma(mu))[sigma(i)] = mu[i].
    """

    lams: tuple[Fraction, Fraction, Fraction]
    perm: tuple[int, int, int] = (0, 1, 2)
    shift: int = 0

    def __post_init__(self):
        object.__setattr__(self, "lams", tuple(nonzero(x, "lambda") for x in items(self.lams, 3)))
        object.__setattr__(self, "perm", integers(self.perm))
        if sorted(self.perm) != [0, 1, 2]:
            raise InvalidValue("perm must be a permutation of (0, 1, 2)")
        object.__setattr__(self, "shift", integer(self.shift) % 2)


VERTEX_IDENTITY = VertexAut((Fraction(1), Fraction(1), Fraction(1)))


def _permute(sigma: tuple[int, int, int], mu: tuple) -> tuple:
    out = [None, None, None]
    for i in range(3):
        out[sigma[i]] = mu[i]
    return tuple(out)


def compose_vertex_aut(outer: VertexAut, inner: VertexAut) -> VertexAut:
    lams = tuple(
        a * b for a, b in zip(outer.lams, _permute(outer.perm, inner.lams))
    )
    perm = tuple(outer.perm[inner.perm[i]] for i in range(3))
    return VertexAut(lams, perm, outer.shift ^ inner.shift)


def vertex_aut_inverse(a: VertexAut) -> VertexAut:
    inv_perm = [0, 0, 0]
    for i in range(3):
        inv_perm[a.perm[i]] = i
    lams = tuple(1 / x for x in _permute(tuple(inv_perm), a.lams))
    return VertexAut(lams, inv_perm, a.shift)


def act_on_two_per_v(a: VertexAut, t: TwoPerV) -> TwoPerV:
    """Scale by (lam1 lam2 lam3)^-1; the permutation and shift act trivially."""
    product = a.lams[0] * a.lams[1] * a.lams[2]
    return TwoPerV(t.value / product)


def stabilizer_check_v(a: VertexAut, t: TwoPerV) -> bool:
    return act_on_two_per_v(a, t) == t


# ---------------------------------------------------------------------------
# Pants presentation
# ---------------------------------------------------------------------------


class PantsPresentation(Record):
    """Six generator scalars grouped into two oppositely oriented triangles.

    The first triangle is (c1, c2, c3), the second (c4, c5, c6), and the
    scalars of each triangle must multiply to 1.  Scalars i and i+3 meet
    at the same puncture; this pairing is a labeling convention that the
    descent and toric modules align with vertex cyclic orders.
    """

    scalars: tuple[Fraction, Fraction, Fraction, Fraction, Fraction, Fraction]

    def __post_init__(self):
        scalars = items(self.scalars, 6)
        object.__setattr__(self, "scalars", tuple(nonzero(c, "generator scalar") for c in scalars))
        c = self.scalars
        if c[0] * c[1] * c[2] != 1 or c[3] * c[4] * c[5] != 1:
            raise TriangleConstraintViolated(
                "each triangle's scalars must multiply to 1"
            )


def pants_rescale_to_puncture(p: PantsPresentation) -> tuple[Fraction, Fraction, Fraction]:
    """The three puncture scalars (c1 c4, c2 c5, c3 c6).

    Presentations that differ by rescaling the three identity morphisms
    give the same puncture triple, and the triple determines the
    presentation up to such a rescaling.
    """
    c = p.scalars
    return (c[0] * c[3], c[1] * c[4], c[2] * c[5])


def pants_inner_rescale(
    p: PantsPresentation, d: tuple[Fraction, Fraction, Fraction]
) -> PantsPresentation:
    """Conjugate the presentation by identity multiples (d1, d2, d3).

    A generator from object i to object j picks up d_j / d_i; with the
    triangle layout 1->2->3->1 and its reverse this is the action below.
    """
    d1, d2, d3 = (nonzero(x, "identity multiple") for x in items(d, 3))
    c = p.scalars
    return PantsPresentation(
        (c[0] * d2 / d1, c[1] * d3 / d2, c[2] * d1 / d3, c[3] * d1 / d2, c[4] * d2 / d3, c[5] * d3 / d1)
    )


# ---------------------------------------------------------------------------
# Index categories
# ---------------------------------------------------------------------------


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
