"""Overlap tables: one build per resolution against per-element quadrature.

The reference below computes every overlap the way the package did before
the tables existed: one ``integrate`` call per axis and pair, on the rule
the pair's parity selects.
"""

import dataclasses
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from rmsphase import Channel, NodeCounts, gram_matrix, live_indices, matrix_element
from rmsphase import oscillator as osc
from rmsphase import quadrature as quad
from rmsphase import specfun
from rmsphase.errors import EvaluationError
from rmsphase.oscillator import (
    live_entry,
    overlap_tables,
    polar_profiles,
    radial_profiles,
    rapidity_profiles,
    state_table,
)
from rmsphase.perturbation import phi_integral
from rmsphase.quadrature import (
    QuadratureRule,
    integrate,
    polar_rule,
    radial_rule,
    rapidity_rule,
)

NULL = (3, 4, 7, 11, 12, 15)
UNEVEN = NodeCounts(40, 72, 33, 96)
FACTORIES = {"polar": polar_profiles, "rapidity": rapidity_profiles, "radial": radial_profiles}


def single(profiles, qn):
    """The profile of one state, from its axis's stacked ``profiles``."""
    return lambda x: profiles([qn])(x)[0]


def axis_product(qi, qj, power, nodes):
    """theta, beta and rho integrals of f_i f_j (measure) (shared factor)^power."""
    n_parity, l_parity = (qi.n + qj.n) % 2, (qi.l + qj.l) % 2
    fi, fj = single(polar_profiles, qi), single(polar_profiles, qj)
    gi, gj = single(rapidity_profiles, qi), single(rapidity_profiles, qj)
    hi, hj = single(radial_profiles, qi), single(radial_profiles, qj)
    polar = integrate(polar_rule(nodes.polar)[n_parity],
                      lambda t: fi(t) * fj(t) * np.sin(t) ** (2 * power + 2)).real
    rapidity = integrate(rapidity_rule(nodes.rapidity)[n_parity],
                         lambda b: gi(b) * gj(b) * np.cosh(b) ** (2 * power + 1)).real
    radial = integrate(radial_rule(nodes.radial)[l_parity],
                       lambda r: hi(r) * hj(r) * r ** (3 + 2 * power)).real
    return polar * rapidity * radial


def azimuthal(qi, qj, nodes):
    x, w = leggauss(nodes.azimuthal)
    rule = QuadratureRule(math.pi * (x + 1.0), math.pi * w)
    return integrate(rule, lambda phi: np.exp(1j * (qj.m - qi.m) * phi))


def reference(nodes):
    """Gram matrix, both channels and the shared factor, element by element."""
    qns = [state_table()[i - 1] for i in live_indices()]
    norms = [1.0 / math.sqrt(azimuthal(q, q, nodes).real * axis_product(q, q, 0, nodes))
             for q in qns]
    size = len(qns)
    tables = {key: np.empty((size, size), dtype=complex)
              for key in ("gram", "shared", *Channel)}
    for a, qi in enumerate(qns):
        for b, qj in enumerate(qns):
            pair = norms[a] * norms[b]
            coupling = pair * axis_product(qi, qj, 1, nodes)
            tables["gram"][a, b] = pair * azimuthal(qi, qj, nodes) * axis_product(qi, qj, 0, nodes)
            tables["shared"][a, b] = azimuthal(qi, qj, nodes) * coupling
            for channel in Channel:
                tables[channel][a, b] = phi_integral(qi.m, qj.m, channel) * coupling
    return tables


@pytest.mark.parametrize("nodes", [NodeCounts.uniform(64), UNEVEN], ids=["nodes64", "uneven"])
def test_tables_match_per_element_quadrature(nodes):
    ref = reference(nodes)
    live = live_indices()
    got = {
        "gram": gram_matrix(nodes)[1],
        "shared": np.array([[live_entry(overlap_tables(nodes).shared, i, j) for j in live]
                            for i in live]),
        **{channel: np.array([[matrix_element(i, j, channel, nodes=nodes) for j in live]
                              for i in live])
           for channel in Channel},
    }
    for key, table in ref.items():
        assert np.max(np.abs(got[key] - table)) <= 1e-13, key


def test_null_rows_and_columns_exactly_zero(nodes64):
    gram = gram_matrix(nodes64)[1]
    for i in NULL:
        for j in range(1, 17):
            for a, b in ((i, j), (j, i)):
                assert live_entry(gram, a, b) == 0.0
                assert live_entry(overlap_tables(nodes64).shared, a, b) == 0.0
                for channel in Channel:
                    assert matrix_element(a, b, channel, nodes=nodes64) == 0.0


def test_tables_are_read_only_and_hermitian():
    tables = overlap_tables(UNEVEN)
    for table in tables:
        assert not table.flags.writeable
    for table in (tables.gram, tables.coupling, tables.shared):
        assert np.array_equal(table, table.conj().T)


@pytest.mark.parametrize("axis", ["polar", "rapidity", "radial"])
def test_non_finite_profile_raises(monkeypatch, fresh_tables, axis):
    def nan_like(spec):
        rows = len(spec.layout[0])
        return spec._replace(profiles=lambda x: np.full((rows, *np.shape(x)), np.nan))

    monkeypatch.setattr(osc, "AXES", tuple(nan_like(spec) if spec.field == axis else spec
                                           for spec in osc.AXES))
    with pytest.raises(EvaluationError, match=f"on {axis} axis"):
        overlap_tables(NodeCounts(41, 43, 45, 47))


def test_second_build_is_a_cache_hit():
    first = overlap_tables(UNEVEN)
    hits = overlap_tables.cache_info().hits
    assert overlap_tables(UNEVEN) is first
    assert overlap_tables.cache_info().hits == hits + 1
    assert overlap_tables.cache_info().maxsize == 8


@pytest.mark.parametrize("field", ["polar", "rapidity", "radial"])
def test_shared_axis_count_reuses_its_table(monkeypatch, fresh_tables, field):
    # a resolution that shares only `field`'s count with an earlier one
    # builds that axis from neither its rules nor its profiles
    calls = []

    def counted(axis):
        def rules(n):
            calls.append((axis.field, "rules"))
            return axis.rules(n)

        def profiles(x):
            calls.append((axis.field, "profiles"))
            return axis.profiles(x)

        return axis._replace(rules=rules, profiles=profiles)

    monkeypatch.setattr(osc, "AXES", tuple(counted(axis) for axis in osc.AXES))
    first = NodeCounts(37, 39, 41, 43)
    second = dataclasses.replace(first, **{name: getattr(first, name) + 8 for name in
                                           ("radial", "polar", "azimuthal", "rapidity")
                                           if name != field})
    overlap_tables(first)
    calls.clear()
    tables = overlap_tables(second)
    assert sorted(calls) == sorted((axis.field, what) for axis in osc.AXES
                                   if axis.field != field for what in ("rules", "profiles"))
    osc._axis_overlaps.cache_clear()
    fresh = overlap_tables.__wrapped__(second)
    assert [table.tobytes() for table in tables] == [table.tobytes() for table in fresh]


def test_axis_cache_keeps_64_counts_per_axis(fresh_tables):
    # each build asks every axis for one count; the oldest of 64 counts
    # stays, and one count more evicts the least recently used
    assert osc.AXIS_CACHE_COUNTS == 64
    counts = range(9, 9 + osc.AXIS_CACHE_COUNTS)
    for n in counts:
        overlap_tables.__wrapped__(NodeCounts.uniform(n))

    def misses(n):
        before = osc._axis_overlaps.cache_info().misses
        overlap_tables.__wrapped__(NodeCounts.uniform(n))
        return osc._axis_overlaps.cache_info().misses - before

    assert misses(counts[0]) == 0
    assert misses(counts[-1] + 1) == len(osc.AXES)
    assert misses(counts[1]) == len(osc.AXES)
    assert misses(counts[0]) == 0


@pytest.mark.parametrize("field, count", [("polar", 9), ("rapidity", 5), ("radial", 6),
                                          ("azimuthal", 2)])
def test_minimal_exact_node_counts(field, count):
    # one axis at `count` nodes, the others at 128, against the 128-node
    # tables: Fejer's second rule on the polar (degree 8) and rapidity
    # (degree 4) polynomials needs degree + 1 nodes, the trapezoid rule
    # |m_j - m_i| + 1; all sit below the CLI floor of 16
    reference_tables = overlap_tables(NodeCounts.uniform(128))

    def gap(k):
        tables = overlap_tables(dataclasses.replace(NodeCounts.uniform(128), **{field: k}))
        return max(float(np.max(np.abs(a - b)) / np.max(np.abs(b)))
                   for a, b in zip(tables, reference_tables))

    assert gap(count) <= 1e-13
    if count > 2:
        assert gap(count - 1) > 1e-6


def test_build_solves_both_radial_parities_in_one_pass(monkeypatch, fresh_tables):
    # one _laguerre call refines both parities as one (2, n) stack of initial nodes
    calls = []
    laguerre = quad._laguerre

    def counted(n, alpha):
        calls.append((n, alpha.tolist()))
        return laguerre(n, alpha)

    monkeypatch.setattr(quad, "_laguerre", counted)
    osc.overlap_tables.__wrapped__(NodeCounts(37, 39, 41, 43))
    assert calls == [(37, [[0.5], [0.0]])]


@pytest.mark.parametrize("nodes", [NodeCounts(37, 39, 41, 43), NodeCounts.uniform(1024)],
                         ids=["uneven", "nodes1024"])
def test_stacked_profiles_match_each_state_alone(nodes):
    # on the stack of an axis's node arrays: the evaluator the axis holds, for
    # its distinct states, and its factory's for every live state at once,
    # against each state's own profile on each array
    qns = [state_table()[i - 1] for i in live_indices()]
    for axis in osc.AXES:
        factory = FACTORIES[axis.field]
        arrays = [rule.nodes for rule in axis.rules(getattr(nodes, axis.field))]
        for states, profiles in ((axis.layout[0], axis.profiles), (qns, factory(qns))):
            stacked = profiles(np.stack(arrays))
            assert stacked.shape == (len(states), len(arrays), len(arrays[0]))
            for qn, rows in zip(states, stacked):
                for x, got in zip(arrays, rows):
                    np.testing.assert_allclose(got, single(factory, qn)(x), rtol=1e-14, atol=0)


@pytest.mark.parametrize("nodes", [NodeCounts.uniform(1024), NodeCounts(37, 39, 41, 43)])
def test_build_runs_no_dense_eigensolver(monkeypatch, fresh_tables, nodes):
    # the Gauss nodes come from a Taylor solve on the recurrence, at any count
    def dense(*args, **kwargs):
        raise AssertionError("dense eigensolver called")

    monkeypatch.setattr(np.linalg, "eigvalsh", dense)
    monkeypatch.setattr(np.linalg, "eigh", dense)
    tables = osc.overlap_tables.__wrapped__(nodes)
    assert np.all(np.isfinite(tables.gram))


def test_build_asks_each_axis_for_one_pair(monkeypatch, fresh_tables):
    # AXES looks the constructors up on the module, so wrappers see the build
    calls = []
    for name in ("polar_rule", "rapidity_rule", "radial_rule"):
        def counted(n, make=getattr(quad, name), name=name):
            calls.append((name, n))
            return make(n)
        monkeypatch.setattr(quad, name, counted)
    osc.overlap_tables.__wrapped__(NodeCounts(37, 39, 41, 43))
    assert sorted(calls) == [("polar_rule", 39), ("radial_rule", 37), ("rapidity_rule", 43)]


def test_build_evaluates_each_profile_once_per_node_set(monkeypatch, fresh_tables):
    # a profile reads (l, n) on the polar axis, (m, n) on rapidity and
    # (n_a, l) on radial, so the ten states have 3, 3 and 4 distinct ones.
    # Each axis evaluates all of its distinct profiles in one call of its
    # evaluator: polar and rapidity on the one node array their pair shares,
    # radial on both of its node arrays at once
    calls = []

    def counted(axis):
        def profiles(x):
            values = axis.profiles(x)
            calls.append((axis.field, np.shape(x), values.shape))
            return values
        return axis._replace(profiles=profiles)

    monkeypatch.setattr(osc, "AXES", tuple(counted(axis) for axis in osc.AXES))
    integrated = []
    wrapped = quad.integrate

    def counted_integrate(rule, f):
        integrated.append(len(rule.nodes))
        return wrapped(rule, f)

    monkeypatch.setattr(quad, "integrate", counted_integrate)
    osc.overlap_tables.__wrapped__(NodeCounts(37, 39, 41, 43))
    assert sorted(calls) == [("polar", (1, 39), (3, 1, 39)), ("radial", (2, 37), (4, 2, 37)),
                             ("rapidity", (1, 43), (3, 1, 43))]
    # one azimuthal integral per distinct m_j - m_i, on the 41 azimuthal nodes
    assert integrated == [41] * 3


def test_build_plans_nothing(monkeypatch, fresh_tables):
    # every axis's recurrence was planned at import, so a build from empty
    # caches runs with the planners gone
    def planner(*args):
        raise AssertionError("a build planned a recurrence")

    for module in (osc, specfun):
        for name in ("legendre_plan", "laguerre_plan"):
            monkeypatch.setattr(module, name, planner)
    tables = osc.overlap_tables(NodeCounts(51, 53, 55, 57))
    assert np.all(np.isfinite(tables.gram))
