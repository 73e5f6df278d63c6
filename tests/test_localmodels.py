import random
from fractions import Fraction

import pytest

from models import (
    EDGE_IDENTITY,
    VERTEX_IDENTITY,
    EdgeAut,
    Monomial,
    PantsPresentation,
    TriangleConstraintViolated,
    TwoPerE,
    TwoPerV,
    VertexAut,
    act_on_two_per_e,
    act_on_two_per_v,
    compose_edge_aut,
    compose_vertex_aut,
    edge_aut_inverse,
    pants_inner_rescale,
    pants_rescale_to_puncture,
    stabilizer_check_e,
    stabilizer_check_v,
    transporter_unit,
    vertex_aut_inverse,
)


def rand_fraction(rng, allow_negative=True):
    num = rng.randint(1, 12)
    if allow_negative and rng.random() < 0.5:
        num = -num
    return Fraction(num, rng.randint(1, 12))


def rand_edge_aut(rng):
    return EdgeAut(
        rng.choice((-1, 1)),
        rng.randint(-6, 6),
        rand_fraction(rng),
        rand_fraction(rng),
        rng.randint(0, 1),
    )


def rand_vertex_aut(rng):
    perm = [0, 1, 2]
    rng.shuffle(perm)
    return VertexAut(
        tuple(rand_fraction(rng) for _ in range(3)), tuple(perm), rng.randint(0, 1)
    )


def apply_to_monomial(a: EdgeAut, coeff, x_exp, u_exp):
    """Substitution oracle: push c x^p u^q through the ring map directly."""
    coeff = coeff * a.lam_x**x_exp * a.lam_u**u_exp
    return (coeff, a.eps * x_exp + a.n * u_exp, u_exp)


# --- edge model --------------------------------------------------------


def test_identity_composes_trivially():
    rng = random.Random(0)
    for _ in range(50):
        psi = rand_edge_aut(rng)
        assert compose_edge_aut(EDGE_IDENTITY, psi) == psi
        assert compose_edge_aut(psi, EDGE_IDENTITY) == psi


def test_discrete_shear_is_self_inverse():
    psi = EdgeAut(-1, 2, 1, 1, 1)
    assert compose_edge_aut(psi, psi) == EDGE_IDENTITY


def test_discrete_composition_matrix():
    # [[-1,3],[0,1]] * [[-1,1],[0,1]] = [[1,2],[0,1]]
    a = EdgeAut(-1, 3, 1, 1, 0)
    b = EdgeAut(-1, 1, 1, 1, 0)
    assert compose_edge_aut(a, b).discrete_part() == (1, 2)


def test_composition_matches_substitution_oracle():
    rng = random.Random(1)
    for _ in range(300):
        a, b = rand_edge_aut(rng), rand_edge_aut(rng)
        ab = compose_edge_aut(a, b)
        coeff = rand_fraction(rng)
        p, q = rng.randint(-4, 4), rng.randint(-4, 4)
        via_b = apply_to_monomial(b, coeff, p, q)
        via_a_then = apply_to_monomial(a, *via_b)
        assert apply_to_monomial(ab, coeff, p, q) == via_a_then


def test_group_axioms_edge():
    rng = random.Random(2)
    for _ in range(300):
        a, b, c = (rand_edge_aut(rng) for _ in range(3))
        assert compose_edge_aut(compose_edge_aut(a, b), c) == compose_edge_aut(
            a, compose_edge_aut(b, c)
        )
        inv = edge_aut_inverse(a)
        assert compose_edge_aut(a, inv) == EDGE_IDENTITY
        assert compose_edge_aut(inv, a) == EDGE_IDENTITY


def test_action_examples():
    t = TwoPerE(Fraction(1), 0)  # u
    assert act_on_two_per_e(EDGE_IDENTITY, t) == t
    shear = EdgeAut(-1, 5, 1, 1, 0)
    assert act_on_two_per_e(shear, t) == TwoPerE(Fraction(1), 5)
    a = EdgeAut(1, 0, Fraction(2), Fraction(3), 0)
    assert act_on_two_per_e(a, TwoPerE(Fraction(5), 2)) == TwoPerE(Fraction(60), 2)


def test_action_is_group_action():
    rng = random.Random(3)
    for _ in range(300):
        a, b = rand_edge_aut(rng), rand_edge_aut(rng)
        t = TwoPerE(rand_fraction(rng), rng.randint(-5, 5))
        assert act_on_two_per_e(compose_edge_aut(a, b), t) == act_on_two_per_e(
            a, act_on_two_per_e(b, t)
        )


def test_stabilizer_of_u():
    assert stabilizer_check_e(EdgeAut(-1, 0, Fraction(7), Fraction(1), 0), TwoPerE(1, 0))
    assert not stabilizer_check_e(EdgeAut(1, 1, 1, 1, 0), TwoPerE(1, 0))
    # (eps=+1, n=-2, lamX=2, lamU=1/4) sends x^2 u to u != x^2 u
    a = EdgeAut(1, -2, Fraction(2), Fraction(1, 4), 0)
    t = TwoPerE(Fraction(1), 2)
    assert act_on_two_per_e(a, t) == TwoPerE(Fraction(1), 0)
    assert not stabilizer_check_e(a, t)


def test_stabilizer_characterization():
    rng = random.Random(4)
    u = TwoPerE(Fraction(1), 0)
    for _ in range(400):
        a = rand_edge_aut(rng)
        assert stabilizer_check_e(a, u) == (a.n == 0 and a.lam_u == 1)


def test_twoper_torsor():
    rng = random.Random(5)
    for _ in range(200):
        t1 = TwoPerE(rand_fraction(rng), rng.randint(-5, 5))
        t2 = TwoPerE(rand_fraction(rng), rng.randint(-5, 5))
        unit = transporter_unit(t1, t2)
        assert unit.u_exp == 0
        assert TwoPerE(unit.coeff * t1.coeff, unit.x_exp + t1.x_exp) == t2


@pytest.mark.parametrize("u_exp", [-3, 0, 1, 4])
def test_monomial_degree_is_twice_the_u_exponent(u_exp):
    # deg x = 0 and deg u = 2
    assert Monomial(Fraction(-2, 3), 5, u_exp).degree == 2 * u_exp


def test_discrete_part_homomorphism():
    rng = random.Random(6)
    for _ in range(200):
        a, b = rand_edge_aut(rng), rand_edge_aut(rng)
        ea, na = a.discrete_part()
        eb, nb = b.discrete_part()
        composed = compose_edge_aut(a, b).discrete_part()
        assert composed == (ea * eb, ea * nb + na)
    # kernel of the projection: scalar rescalings and the shift
    a = EdgeAut(1, 0, Fraction(5, 3), Fraction(-2, 7), 1)
    assert a.discrete_part() == (1, 0)


# --- vertex model ------------------------------------------------------


def test_vertex_identity_and_axioms():
    rng = random.Random(7)
    t = TwoPerV(Fraction(3, 2))
    assert act_on_two_per_v(VERTEX_IDENTITY, t) == t
    for _ in range(300):
        a, b, c = (rand_vertex_aut(rng) for _ in range(3))
        assert compose_vertex_aut(compose_vertex_aut(a, b), c) == compose_vertex_aut(
            a, compose_vertex_aut(b, c)
        )
        inv = vertex_aut_inverse(a)
        assert compose_vertex_aut(a, inv) == VERTEX_IDENTITY
        assert compose_vertex_aut(inv, a) == VERTEX_IDENTITY
        t = TwoPerV(rand_fraction(rng))
        assert act_on_two_per_v(compose_vertex_aut(a, b), t) == act_on_two_per_v(
            a, act_on_two_per_v(b, t)
        )


def test_vertex_action_examples():
    t = TwoPerV(Fraction(1))
    a = VertexAut((Fraction(2), Fraction(3), Fraction(1, 6)))
    assert act_on_two_per_v(a, t) == t
    b = VertexAut((Fraction(1), Fraction(1), Fraction(2)))
    assert act_on_two_per_v(b, TwoPerV(Fraction(3))) == TwoPerV(Fraction(3, 2))


def test_vertex_action_factors_through_product():
    rng = random.Random(8)
    for _ in range(300):
        lams = tuple(rand_fraction(rng) for _ in range(3))
        perm = [0, 1, 2]
        rng.shuffle(perm)
        a = VertexAut(lams, (0, 1, 2), 0)
        b = VertexAut(lams, tuple(perm), rng.randint(0, 1))
        t = TwoPerV(rand_fraction(rng))
        assert act_on_two_per_v(a, t) == act_on_two_per_v(b, t)


def test_vertex_stabilizer():
    rng = random.Random(9)
    for _ in range(300):
        a = rand_vertex_aut(rng)
        t = TwoPerV(rand_fraction(rng))
        product = a.lams[0] * a.lams[1] * a.lams[2]
        assert stabilizer_check_v(a, t) == (product == 1)


# --- pants presentation ------------------------------------------------


def test_pants_triangle_constraint():
    with pytest.raises(TriangleConstraintViolated):
        PantsPresentation((2, 1, 1, 1, 1, 1))


def test_pants_puncture_examples():
    ones = PantsPresentation((1, 1, 1, 1, 1, 1))
    assert pants_rescale_to_puncture(ones) == (1, 1, 1)
    p = PantsPresentation((Fraction(2), Fraction(3), Fraction(1, 6), 1, 1, 1))
    assert pants_rescale_to_puncture(p) == (Fraction(2), Fraction(3), Fraction(1, 6))


def test_pants_inner_rescaling_invariance_and_bijectivity():
    rng = random.Random(10)
    for _ in range(200):
        c1, c2 = rand_fraction(rng), rand_fraction(rng)
        c4, c5 = rand_fraction(rng), rand_fraction(rng)
        p = PantsPresentation((c1, c2, 1 / (c1 * c2), c4, c5, 1 / (c4 * c5)))
        d = tuple(rand_fraction(rng) for _ in range(3))
        q = pants_inner_rescale(p, d)
        assert pants_rescale_to_puncture(q) == pants_rescale_to_puncture(p)
        # injectivity modulo rescaling: equal puncture triples are related
        # by an inner rescaling, namely d_i = ratios of the c1/c2 scalars.
        e1 = q.scalars[0] / p.scalars[0]
        e2 = q.scalars[1] / p.scalars[1]
        recovered = pants_inner_rescale(p, (1, e1, e1 * e2))
        assert recovered == q
