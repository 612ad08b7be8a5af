"""Shared generators for randomized corpora.

All generators are seeded by the caller so every test run is
deterministic.  Commutativity is obtained by construction: tuple
members are simultaneously diagonal or circulant, or polynomials in
one contraction, never by numerical accident.  ``random_commuting_tuple``
draws one row of normals and forms its tuple by the library's
``dilations.dilation._row_tuple``, the step ``vn-search`` forms its
violating tuples with; ``vn-search`` itself draws its trials' rows in
blocks from two streams of its seed, not from one generator per call.
"""

import numpy as np

from dilations.dilation import MultiPolynomial, _row_tuple
from dilations.interpolation import ContractionTuple
from dilations.linalg import identity, op_norm


def random_contraction(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    norm = op_norm(m)
    if norm > 1:
        m = m / (norm * (1 + 1e-12))
    return m


def random_unitary(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_commuting_unitaries(rng, d, dim):
    """Diagonal phase unitaries conjugated by one common unitary."""
    q = random_unitary(rng, dim)
    mats = []
    for _ in range(d):
        phases = np.exp(2j * np.pi * rng.random(dim))
        mats.append(q @ np.diag(phases) @ q.conj().T)
    return ContractionTuple(tuple(mats), tol=1e-9)


def random_circulant_bistochastic(rng, d, dim):
    """Convex combinations of cyclic shift powers: commuting, doubly
    stochastic, entrywise nonnegative by construction."""
    shift = np.zeros((dim, dim), dtype=np.complex128)
    for m in range(dim):
        shift[(m + 1) % dim, m] = 1.0
    shift_pows = [identity(dim)]
    for _ in range(dim - 1):
        shift_pows.append(shift_pows[-1] @ shift)
    mats = []
    for _ in range(d):
        weights = rng.random(dim)
        weights = weights / weights.sum()
        mats.append(sum(w * p for w, p in zip(weights, shift_pows)))
    return ContractionTuple(tuple(mats), tol=1e-9)


def random_commuting_tuple(rng, d, dim):
    """Commuting by construction: each member is a polynomial in one
    contraction, from 2 dim^2 + 8 d normals drawn from ``rng`` in one call."""
    return _row_tuple(rng.standard_normal(2 * dim * dim + 8 * d), d, dim)


def random_polynomial(rng, d):
    """One to four terms, each d exponents below 4 and a complex
    coefficient of standard normal parts; terms drawn twice add up."""
    terms = {}
    for _ in range(rng.integers(1, 5)):
        # Scalar draws give the values of one size-d draw, without its overhead.
        alpha = tuple([int(rng.integers(0, 4)) for _ in range(d)])
        re, im = rng.standard_normal(2).tolist()
        terms[alpha] = terms.get(alpha, 0) + complex(re, im)
    return MultiPolynomial(d=d, terms=terms)
