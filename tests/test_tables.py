"""Overlap tables: one build per resolution against per-element quadrature.

The reference below computes every overlap the way the package did before
the tables existed: one ``integrate`` call per axis and pair, on the rule
the pair's parity selects.
"""

import math

import numpy as np
import pytest

from rmsphase import Channel, NodeCounts, gram_matrix, live_indices, matrix_element
from rmsphase import oscillator as osc
from rmsphase.errors import EvaluationError
from rmsphase.oscillator import (
    live_entry,
    overlap_tables,
    polar_profile,
    radial_profile,
    rapidity_profile,
    state_table,
)
from rmsphase.perturbation import phi_integral, shared_factor_element
from rmsphase.quadrature import (
    gauss_legendre,
    integrate,
    polar_rule,
    radial_rule,
    rapidity_rule,
)

NULL = (3, 4, 7, 11, 12, 15)
UNEVEN = NodeCounts(40, 72, 33, 96)


def axis_product(qi, qj, power, nodes):
    """theta, beta and rho integrals of f_i f_j (measure) (shared factor)^power."""
    weight = "legendre" if (qi.n + qj.n) % 2 == 0 else "chebyshev-u"
    alpha = 0.5 if (qi.l + qj.l) % 2 == 0 else 0.0
    fi, fj = polar_profile(qi), polar_profile(qj)
    gi, gj = rapidity_profile(qi), rapidity_profile(qj)
    hi, hj = radial_profile(qi), radial_profile(qj)
    polar = integrate(polar_rule(nodes.polar, weight),
                      lambda t: fi(t) * fj(t) * np.sin(t) ** (2 * power + 2)).real
    rapidity = integrate(rapidity_rule(nodes.rapidity, weight),
                         lambda b: gi(b) * gj(b) * np.cosh(b) ** (2 * power + 1)).real
    radial = integrate(radial_rule(nodes.radial, 1.0, alpha),
                       lambda r: hi(r) * hj(r) * r ** (3 + 2 * power)).real
    return polar * rapidity * radial


def azimuthal(qi, qj, nodes):
    rule = gauss_legendre(nodes.azimuthal, 0.0, 2.0 * math.pi, "azimuthal")
    return integrate(rule, lambda phi: np.exp(1j * (qj.m - qi.m) * phi))


def reference(nodes):
    """Gram matrix, both channels and the shared factor, element by element."""
    qns = [state_table()[i - 1].qn for i in live_indices()]
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
        "shared": np.array([[shared_factor_element(i, j, nodes) for j in live] for i in live]),
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
                assert shared_factor_element(a, b, nodes64) == 0.0
                for channel in Channel:
                    assert matrix_element(a, b, channel, nodes=nodes64) == 0.0


def test_tables_are_read_only_and_hermitian():
    tables = overlap_tables(UNEVEN)
    for table in tables:
        assert not table.flags.writeable
    for table in (tables.gram, tables.coupling, tables.shared):
        assert np.array_equal(table, table.conj().T)


@pytest.mark.parametrize("function, axis", [("assoc_legendre", "polar"),
                                            ("gen_laguerre", "radial")])
def test_non_finite_profile_raises(monkeypatch, function, axis):
    def nan_like(degree, order, x):
        return np.full_like(np.asarray(x, dtype=float), np.nan)

    monkeypatch.setattr(osc, function, nan_like)
    with pytest.raises(EvaluationError, match=f"on {axis} axis"):
        overlap_tables(NodeCounts(41, 43, 45, 47))


def test_second_build_is_a_cache_hit():
    first = overlap_tables(UNEVEN)
    hits = overlap_tables.cache_info().hits
    assert overlap_tables(UNEVEN) is first
    assert overlap_tables.cache_info().hits == hits + 1
    assert overlap_tables.cache_info().maxsize == 8
