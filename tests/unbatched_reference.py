"""The unbatched routes that the stacked approximation path replaces.

``reference_matrix_exp`` is the one-matrix scaling-and-squaring routine
and ``reference_sweep`` the per-point, per-eps blend loop over
``scaled_blend``.  The tests require the library's batched
``matrix_exp`` and ``approx_error_sweep`` to agree with them bit for bit.
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
            blend, _ = scaled_blend(samples, eps, point)
            sup_error = max(
                sup_error, float(np.linalg.norm(blend - true_value(point), 2))
            )
        report.append({"eps": eps, "sup_error": sup_error})
    return report
