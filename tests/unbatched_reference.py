"""Independent routes that the library's fast paths are checked against.

``reference_matrix_exp`` is the one-matrix scaling-and-squaring routine;
the tests require the library's stacked ``matrix_exp`` to agree with it
bit for bit.

``reference_sweep`` is the per-point, per-eps blend loop: for every grid
point it blends the 2^d lattice-corner samples with ``scaled_blend``,
each sample and the true value being the exponential of a sum
exp(sum_i t_i A_i).  The library's ``approx_error_sweep`` multiplies
per-axis factors instead, so the tests require agreement within the
rounding and commutator bound its docstring states.

``reference_torus_sup`` is the per-term lattice loop that complex
powers every term on each slice of the first axis.  The separable
``torus_sup`` sums in another order, so the tests require its lattice
maximum to agree within the rounding bound its docstring states.
"""

import itertools
import math

import numpy as np

from dilations.interpolation import scaled_blend
from dilations.linalg import identity


def reference_matrix_exp(a, t=1.0):
    """exp(t*A) for one matrix: scaling and squaring, Taylor series, cap 50."""
    a = np.asarray(a, dtype=np.complex128)
    ta = t * a
    norm = float(np.linalg.norm(ta, 2))
    if norm > 50.0:
        raise ValueError(f"norm of t*A is {norm:.3g}, beyond the cap")
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    x = ta / (2**squarings)
    n = a.shape[0]
    result = identity(n)
    term = identity(n)
    for k in range(1, 30):
        term = term @ x / k
        result = result + term
        if np.abs(term).max() < 1e-18 * max(1.0, np.abs(result).max()):
            break
    for _ in range(squarings):
        result = result @ result
    return result


def reference_sweep(gens, eps_list, grid):
    """Sup-error of each eps's blends, one grid point and one corner at a time."""
    d = len(gens)
    dim = gens[0].shape[0]

    def true_value(point):
        return reference_matrix_exp(sum(point[i] * gens[i] for i in range(d)))

    report = []
    for eps in eps_list:
        samples = {(0,) * d: identity(dim)}
        sup_error = 0.0
        for point in grid:
            cells = [math.floor(x / eps) for x in point]
            for e in itertools.product((0, 1), repeat=d):
                corner = tuple(c + ei for c, ei in zip(cells, e))
                if corner not in samples:
                    samples[corner] = true_value(tuple(c * eps for c in corner))
            blend = scaled_blend(samples, eps, point)
            sup_error = max(
                sup_error, float(np.linalg.norm(blend - true_value(point), 2))
            )
        report.append({"eps": eps, "sup_error": sup_error})
    return report


def reference_torus_sup(poly, M):
    """(grid_sup, lipschitz_pad, sup_upper), the first axis swept one slice
    at a time and every term raised to its powers on the whole slice."""
    z = np.exp(2j * np.pi * np.arange(M) / M)
    if poly.d == 1:
        values = np.zeros(M, dtype=np.complex128)
        for alpha, coeff in poly.terms.items():
            values += coeff * z ** alpha[0]
        grid_sup = float(np.abs(values).max()) if poly.terms else 0.0
    else:
        rest = np.meshgrid(*([z] * (poly.d - 1)), indexing="ij")
        grid_sup = 0.0
        for z0 in z:
            values = np.zeros(rest[0].shape, dtype=np.complex128)
            for alpha, coeff in poly.terms.items():
                term = coeff * z0 ** alpha[0]
                for i in range(1, poly.d):
                    term = term * rest[i - 1] ** alpha[i]
                values += term
            if poly.terms:
                grid_sup = max(grid_sup, float(np.abs(values).max()))
    gradient_bound = sum(
        abs(coeff) * sum(alpha) for alpha, coeff in poly.terms.items()
    )
    pad = math.pi / M * gradient_bound
    return grid_sup, pad, grid_sup + pad
