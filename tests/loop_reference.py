"""References for the loop routes, read only by the tests.

The package runs its overlap chain in the 3-dim span of e_j, a and b
(``berry._overlap_phases``).  These helpers build the same loop over the
full basis of live states, so the tests can hold the reduced chain to it,
keep the reduced chain with its norms formed on every call, and rotate a
coefficient set's basis phases for the gauge tests.  ``as_mappings``
turns a set's vectors back into the mappings its constructor takes, and
``folded_sums`` takes a set's sums as a Python fold over its entries.
"""

import cmath
import math

import numpy as np

from rmsphase import live_indices
from rmsphase.berry import _loop_basis, _loop_samples
from rmsphase.errors import EvaluationError
from rmsphase.oscillator import _hermitian
from rmsphase.perturbation import CorrectionCoefficients


def loop_alphas(loop) -> np.ndarray:
    """The loop's sample angles in traversal order, as ``berry._loop_samples``
    takes them: ``loop.steps`` equal steps from 0."""
    return np.linspace(0.0, 2.0 * math.pi, loop.steps, endpoint=False)


def loop_vectors(coeffs: CorrectionCoefficients, radius: float,
                 alphas: np.ndarray) -> np.ndarray:
    """Coefficient vectors of Psi(alpha) over the live states, one row per
    angle: the full-basis samples that ``overlap_product_phase`` chains."""
    coords = np.stack([np.ones_like(alphas), radius * np.cos(alphas),
                       radius * np.sin(alphas)], axis=1)
    return coords @ _loop_basis(coeffs).T


def overlap_product_phase(vectors: np.ndarray, gram: np.ndarray) -> float:
    """Accumulated phase of the closed chain of successive overlaps.

    -Im log prod_k <v_k | v_{k+1}> with each sample normalized under the
    supplied Gram metric.  Per-sample phases telescope out of the closed
    product, so the result is exactly gauge invariant; the total loop
    phase must stay inside (-pi, pi], which the perturbative loop radius
    guarantees by a wide margin.  This is the chain over the full basis;
    ``berry._overlap_phases`` runs the same chain in the 3-dim span of the
    loop, and the tests hold the two together.
    """
    # overlap <v_k|v_{k+1}> = conj(v_k) . G . v_{k+1}
    norms = np.sqrt(np.einsum("ki,ki->k", np.conj(vectors), vectors @ gram.T).real)
    normalized = vectors / norms[:, None]
    nxt = np.roll(normalized, -1, axis=0)
    overlaps = np.einsum("ki,ki->k", np.conj(normalized), nxt @ gram.T)
    if np.any(np.abs(overlaps) < 0.5):
        raise EvaluationError(
            "adjacent loop samples barely overlap; increase the step count")
    product = complex(np.prod(overlaps / np.abs(overlaps)))
    return -float(cmath.phase(product))


def normed_overlap_phases(coeffs: CorrectionCoefficients, gram: np.ndarray,
                          loop, radii: tuple[float, ...]) -> list[float]:
    """The reduced chain's phase per r^2 at each of ``radii``, with the
    weak-overlap refusal always run on the norms n_k^2 = u_k^T (Re H) u_k.

    This is ``berry._overlap_phases``'s array pass before the package
    screened that refusal on the reduced metric, with the link products
    formed from the samples on every call; the tests hold the package's
    pass to it bit for bit, values and refusals alike.
    """
    basis = _loop_basis(coeffs)
    metric = _hermitian(basis.conj().T @ gram @ basis)
    p, q = metric.real, metric.imag
    c, s = _loop_samples(loop.steps)[0]
    c0, s0, c1, s1 = c[:-1], s[:-1], c[1:], s[1:]
    re1 = p[0, 1] * (c0 + c1) + p[0, 2] * (s0 + s1)
    re2 = p[1, 1] * (c0 * c1) + p[2, 2] * (s0 * s1) + p[1, 2] * (c0 * s1 + s0 * c1)
    im1 = q[0, 1] * (c1 - c0) + q[0, 2] * (s1 - s0)
    im2 = q[1, 2] * (c0 * s1 - s0 * c1)
    nn1 = 2.0 * (p[0, 1] * c + p[0, 2] * s)
    nn2 = p[1, 1] * (c * c) + p[2, 2] * (s * s) + 2.0 * p[1, 2] * (c * s)
    rows = np.array(radii)[:, None]
    re = p[0, 0] + rows * (re1 + rows * re2)
    im = rows * (im1 + rows * im2)
    nn = p[0, 0] + rows * (nn1 + rows * nn2)
    if np.any(re * re + im * im < 0.25 * (nn[:, :-1] * nn[:, 1:])):
        raise EvaluationError(
            "adjacent loop samples barely overlap; increase the step count")
    phases = -np.sum(np.arctan2(im, re), axis=1)
    return [phase / r ** 2 + 0.0 for phase, r in zip(phases.tolist(), radii)]


def with_basis_phases(coeffs: CorrectionCoefficients, phases: dict[int, float],
                      own_phase: float = 0.0) -> CorrectionCoefficients:
    """Coefficients after redefining psi_k -> e^{i chi_k} psi_k.

    ``phases`` maps catalogue index to chi (0 if absent); a_i picks up
    e^{-i chi_i} e^{+i chi_j}, which leaves the loop's cross sums as they are.
    """
    chi = np.array([phases.get(i, 0.0) for i in live_indices()])
    rotated = np.stack([coeffs.a, coeffs.b]) * (np.exp(-1j * chi) * cmath.exp(1j * own_phase))
    return CorrectionCoefficients(coeffs.state_index, *as_mappings(coeffs.state_index, *rotated))


def as_mappings(j: int, *vectors: np.ndarray) -> list[dict[int, complex]]:
    """Each vector over the live states as the mapping ``CorrectionCoefficients``
    takes for state j: every entry but j's own, keyed by its catalogue index."""
    return [{i: v for i, v in zip(live_indices(), vector.tolist()) if i != j}
            for vector in vectors]


def folded_sums(a: np.ndarray, b: np.ndarray) -> tuple[tuple[float, float, complex], float]:
    """The connection sums and max|coefficient| of the vectors ``a`` and
    ``b``, each sum a fold from +0 in row order of abs(v) ** 2 or
    x.conjugate() * y, in Python float and complex arithmetic: what the
    package's one array pass (``perturbation._fill_records``) must give,
    bit for bit."""
    a, b = a.tolist(), b.tolist()
    abs_a, abs_b = [abs(v) for v in a], [abs(v) for v in b]
    sum_aa = sum_bb = 0.0
    sum_ab = 0j
    for x, y, m, n in zip(a, b, abs_a, abs_b):
        sum_aa += m ** 2
        sum_bb += n ** 2
        sum_ab += x.conjugate() * y
    return (sum_aa, sum_bb, sum_ab), max(abs_a + abs_b)
