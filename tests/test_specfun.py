"""Special-function checks against closed forms and independent oracles,
and the planned evaluations against the unplanned reference."""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from scipy import special

import specfun_reference as reference
from rmsphase import NodeCounts, live_indices, state_table
from rmsphase import oscillator as osc
from rmsphase import quadrature as quad
from rmsphase.specfun import laguerre_plan, laguerre_values, legendre_plan, legendre_values


def legendre(degree, order, x):
    """P_degree^order(x) through a plan made for this one call."""
    return legendre_values(legendre_plan(degree, order), x)


def laguerre(degree, alpha, x):
    """L_degree^alpha(x) through a plan made for this one call."""
    return laguerre_values(laguerre_plan(degree, alpha), x)


def laguerre_series(degree: int, alpha2: int, x: Fraction) -> Fraction:
    """Exact rational series oracle for L_degree^{alpha2/2}(x).

    L_n^a(x) = sum_k (-1)^k [prod_{j=k+1..n} (a+j)] / ((n-k)! k!) x^k,
    evaluated in Fraction arithmetic (alpha2 is twice the upper index, so
    half-integer indices stay exact).
    """
    alpha = Fraction(alpha2, 2)
    total = Fraction(0)
    for k in range(degree + 1):
        coeff = Fraction(1)
        for j in range(k + 1, degree + 1):
            coeff *= alpha + j
        coeff /= math.factorial(degree - k) * math.factorial(k)
        total += (-1) ** k * coeff * x ** k
    return total


def live_pairs() -> list[tuple[int, int]]:
    """Every live state's polar (l, n) and rapidity (m, -n) pair, read from
    the catalogue rather than from the axes' layouts."""
    qns = [state_table()[i - 1] for i in live_indices()]
    return sorted({(qn.l, qn.n) for qn in qns} | {(qn.m, -qn.n) for qn in qns})


LIVE_PAIRS = live_pairs()


class TestAssocLegendre:
    def test_trivial_values(self):
        x = np.array([-0.9, 0.0, 0.42])
        np.testing.assert_allclose(legendre(2, 2, x), 3.0 * (1 - x * x), rtol=1e-14, atol=0)

    def test_parity(self):
        # (1 - x)(1 + x) is even and x (2m + 1) odd to the bit, so the
        # parity P_l^m(-x) = (-1)^(l+m) P_l^m(x) is exact
        x = np.linspace(-0.99, 0.99, 11)
        for l, m in LIVE_PAIRS:
            assert np.array_equal(legendre(l, m, -x), (-1) ** (l + m) * legendre(l, m, x))

    def test_negative_order_reflection(self):
        # P_3^{-2} = (1!/5!) P_3^2 with the Condon-Shortley convention
        x = 0.37
        assert legendre(3, -2, x) == pytest.approx(legendre(3, 2, x) / 120.0, rel=1e-14)

    def test_array_input(self):
        x = np.linspace(-0.99, 0.99, 7)
        values = legendre(3, 2, x)
        assert values.shape == x.shape
        assert values[3] == pytest.approx(legendre(3, 2, float(x[3])))

    @pytest.mark.parametrize("nodes", [NodeCounts(37, 39, 41, 43), NodeCounts.uniform(1024)],
                             ids=["uneven", "nodes1024"])
    def test_column_matches_each_row_alone(self, nodes):
        # every live pair in one plan, on the cos and tanh of the nodes.
        # lpmv's error is ~eps of a row's scale, not of each value: it forms
        # 1 - x^2 (2.4e-12 relative at the outer 1024 polar nodes) and returns
        # 0 for P_3^2 at x = 6e-17, where the column keeps 15 x (1 - x^2)
        degree, order = np.array(LIVE_PAIRS).T
        plan = legendre_plan(degree[:, None], order[:, None])
        for x in (np.cos(quad.polar_rule(nodes.polar)[0].nodes),
                  np.tanh(quad.rapidity_rule(nodes.rapidity)[0].nodes)):
            column = legendre_values(plan, x)
            assert column.shape == (len(LIVE_PAIRS), x.size)
            for (l, m), row in zip(LIVE_PAIRS, column):
                np.testing.assert_allclose(row, legendre(l, m, x), rtol=1e-14, atol=0)
                oracle = special.lpmv(m, l, x)
                np.testing.assert_allclose(row, oracle, rtol=1e-14,
                                           atol=1e-14 * np.max(np.abs(oracle)))


class TestGenLaguerre:
    def test_degree_zero_and_one(self):
        assert laguerre(0, 2.5, 7.0) == 1.0
        assert laguerre(1, 2.5, 1.0) == pytest.approx(2.5, rel=1e-15)

    def test_frozen_series_value(self):
        # independently computed with the exact rational series oracle
        expected = laguerre_series(3, 5, Fraction(2))
        assert expected == Fraction(-31, 48)
        assert laguerre(3, 2.5, 2.0) == pytest.approx(float(expected), rel=1e-13)

    def test_against_series_oracle(self, rng):
        for _ in range(60):
            n = int(rng.integers(0, 7))
            alpha2 = int(rng.integers(1, 10))       # upper index alpha2/2
            xq = Fraction(int(rng.integers(0, 40)), 8)
            exact = float(laguerre_series(n, alpha2, xq))
            got = laguerre(n, alpha2 / 2.0, float(xq))
            assert got == pytest.approx(exact, rel=1e-11, abs=1e-12)

    def test_array_input(self):
        x = np.linspace(0.0, 5.0, 9)
        values = laguerre(2, 1.5, x)
        assert values.shape == x.shape
        assert values[0] == pytest.approx((1.5 + 1) * (1.5 + 2) / 2, rel=1e-14)


# every node count from the smallest to 64, and three larger ones up to the cap
PLAN_COUNTS = (*range(2, 65), 128, 256, 1024)


@lru_cache(maxsize=None)
def family_nodes(n: int) -> dict:
    """Each rule family's nodes at ``n``, as a build stacks them: the polar and
    rapidity pairs share one array, the radial pair has two."""
    def stacked(rules):
        return np.stack([rules[0].nodes] if rules[0].nodes is rules[1].nodes
                        else [rule.nodes for rule in rules])
    return {"polar": stacked(quad.polar_rule(n)), "rapidity": stacked(quad.rapidity_rule(n)),
            "radial": stacked(quad.radial_rule(n)),
            "azimuthal": quad.periodic_trapezoid(n).nodes[None]}


def legendre_points(n: int):
    """Points in [-1, 1] from every family's nodes at ``n``."""
    nodes = family_nodes(n)
    return (np.cos(nodes["polar"]), np.tanh(nodes["rapidity"]), np.tanh(nodes["radial"]),
            np.cos(nodes["azimuthal"]))


def laguerre_points(n: int):
    """Points >= 0 from every family's nodes at ``n``."""
    nodes = family_nodes(n)
    return (nodes["radial"] ** 2, nodes["polar"], nodes["rapidity"] ** 2, nodes["azimuthal"])


AXIS = {axis.field: axis for axis in osc.AXES}


def axis_column(field: str, *names: str) -> np.ndarray:
    """The indices ``names`` of the ``field`` axis's distinct states, one row each."""
    return np.array([[getattr(qn, name) for name in names] for qn in AXIS[field].layout[0]])


def as_column(indices: np.ndarray) -> tuple[np.ndarray, ...]:
    """Index rows as (k, 1, 1) columns against a build's (rules, nodes) stack."""
    return tuple(part.reshape(-1, 1, 1) for part in np.asarray(indices).T)


# (degree, order) columns: the polar axis's (l, n) and the rapidity axis's (m, -n)
LEGENDRE_COLUMNS = {
    "polar": axis_column("polar", "l", "n"),
    "rapidity": axis_column("rapidity", "m", "n") * [1, -1],
}
# (degree, alpha) columns: the radial axis's (n_a, l + 1/2), and degrees 0..6
LAGUERRE_COLUMNS = {
    "radial": axis_column("radial", "n_a", "l") + [0, 0.5],
    "general": np.array(list(itertools.product(range(7), (0.0, 0.5, 1.5, 2.5, 3.5)))),
}


class TestPlansAreTheReference:
    """One plan per column, evaluated on every family's nodes at every count,
    gives the reference's bits: the same ufuncs on the same operands."""

    @pytest.mark.parametrize("name", LEGENDRE_COLUMNS)
    def test_legendre_column(self, name):
        degree, order = as_column(LEGENDRE_COLUMNS[name])
        plan = legendre_plan(degree, order)
        for n in PLAN_COUNTS:
            for x in legendre_points(n):
                expected = reference.assoc_legendre(degree, order, x).tobytes()
                assert legendre_values(plan, x).tobytes() == expected, (name, n)

    @pytest.mark.parametrize("name", LAGUERRE_COLUMNS)
    def test_laguerre_column(self, name):
        degree, alpha = as_column(LAGUERRE_COLUMNS[name])
        degree = degree.astype(int)
        plan = laguerre_plan(degree, alpha)
        for n in PLAN_COUNTS:
            for x in laguerre_points(n):
                expected = reference.gen_laguerre(degree, alpha, x).tobytes()
                assert laguerre_values(plan, x).tobytes() == expected, (name, n)

    @pytest.mark.parametrize("field", ["polar", "rapidity", "radial"])
    def test_axis_evaluator(self, field):
        # the evaluator a build calls, against the factory that planned nothing
        axis = AXIS[field]
        unplanned = getattr(reference, f"{field}_profiles")(axis.layout[0])
        for n in PLAN_COUNTS:
            x = family_nodes(n)[field]
            assert axis.profiles(x).tobytes() == unplanned(x).tobytes(), n
