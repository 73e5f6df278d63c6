"""Autoequivalence groups of the edge and vertex local models.

The edge model is the graded Laurent ring k[x^{+-1}, u^{+-1}] with
deg(x) = 0 and deg(u) = 2; its graded automorphisms act on the invertible
degree-two elements (the 2-periodic structures).  The vertex model's
autoequivalence group is (k^x)^3 x| S3 times a shift, acting on a
k^x-torsor of 2-periodic structures.  The ground field is Q throughout,
so every scalar is an exact Fraction.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import TriangleConstraintViolated
from .record import Record


def _nonzero(value, what: str) -> Fraction:
    f = value if type(value) is Fraction else Fraction(value)
    if f == 0:
        raise ValueError(f"{what} must be nonzero")
    return f


class Monomial(Record):
    """c * x^a * u^b with c nonzero; the degree is 2b."""

    coeff: Fraction
    x_exp: int
    u_exp: int

    def __post_init__(self):
        object.__setattr__(self, "coeff", _nonzero(self.coeff, "coefficient"))
        object.__setattr__(self, "x_exp", int(self.x_exp))
        object.__setattr__(self, "u_exp", int(self.u_exp))

    @property
    def degree(self) -> int:
        return 2 * self.u_exp


class TwoPerE(Record):
    """A 2-periodic structure on the edge model: c * x^n * u."""

    coeff: Fraction
    x_exp: int

    def __post_init__(self):
        object.__setattr__(self, "coeff", _nonzero(self.coeff, "coefficient"))
        object.__setattr__(self, "x_exp", int(self.x_exp))


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
        if self.eps not in (-1, 1):
            raise ValueError("eps must be +1 or -1")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "lam_x", _nonzero(self.lam_x, "lam_x"))
        object.__setattr__(self, "lam_u", _nonzero(self.lam_u, "lam_u"))
        object.__setattr__(self, "shift", int(self.shift) % 2)

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
        object.__setattr__(self, "value", _nonzero(self.value, "2-periodic structure"))


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
        object.__setattr__(
            self, "lams", tuple(_nonzero(x, "lambda") for x in self.lams)
        )
        if sorted(self.perm) != [0, 1, 2]:
            raise ValueError("perm must be a permutation of (0, 1, 2)")
        object.__setattr__(self, "perm", tuple(int(p) for p in self.perm))
        object.__setattr__(self, "shift", int(self.shift) % 2)


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
    return VertexAut(lams, tuple(inv_perm), a.shift)


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
        object.__setattr__(
            self, "scalars", tuple(_nonzero(c, "generator scalar") for c in self.scalars)
        )
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
    d1, d2, d3 = (Fraction(x) for x in d)
    c = p.scalars
    return PantsPresentation(
        (
            c[0] * d2 / d1,
            c[1] * d3 / d2,
            c[2] * d1 / d3,
            c[3] * d1 / d2,
            c[4] * d2 / d3,
            c[5] * d3 / d1,
        )
    )
