"""Finite metrics, tree volume, Euclidean simplex volume, and the
inequalities connecting them.

Tree volume is the product of minimum-spanning-tree edge lengths; it
sandwiches the ideal volume (the best achievable simplex volume over all
Euclidean contractions), which is never computed directly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, combinations

import numpy as np

from .errors import DegenerateMetricError, InputError
from .graphs import all_rational, as_fraction


class FiniteMetric:
    """Symmetric distance matrix with zero diagonal; triangle inequality is
    checked on construction."""

    __slots__ = ("size", "d")

    def __init__(self, matrix):
        rows = [list(r) for r in matrix]
        k = len(rows)
        for r in rows:
            if len(r) != k:
                raise InputError("distance matrix must be square")
        for i in range(k):
            if rows[i][i] != 0:
                raise InputError(f"nonzero diagonal entry at {i}")
            for j in range(i + 1, k):
                if rows[i][j] != rows[j][i]:
                    raise InputError(f"asymmetric entries at ({i},{j})")
                if rows[i][j] < 0:
                    raise InputError(f"negative distance at ({i},{j})")
        for i in range(k):
            for j in range(k):
                for l in range(k):
                    if rows[i][j] > rows[i][l] + rows[l][j]:
                        raise InputError(
                            f"triangle inequality fails on ({i},{j},{l})"
                        )
        self.size = k
        self.d = rows

    def submetric(self, idx) -> "FiniteMetric":
        m = object.__new__(FiniteMetric)
        m.size = len(idx)
        m.d = [[self.d[i][j] for j in idx] for i in idx]
        return m


def mst_edge_weights(m: FiniteMetric) -> list:
    """Weights of a minimum spanning tree of the complete graph on the metric
    points (Prim, lowest-index tie-break)."""
    k = m.size
    if k <= 1:
        return []
    in_tree = [False] * k
    best = [m.d[0][j] for j in range(k)]
    best_from = [0] * k
    in_tree[0] = True
    weights = []
    for _ in range(k - 1):
        j = min(
            (j for j in range(k) if not in_tree[j]),
            key=lambda j: (best[j], best_from[j], j),
        )
        weights.append(best[j])
        in_tree[j] = True
        for l in range(k):
            if not in_tree[l] and m.d[j][l] < best[l]:
                best[l] = m.d[j][l]
                best_from[l] = j
    return weights


def tree_volume(m: FiniteMetric):
    """Product of MST edge weights; 1 for a single point.

    The value does not depend on MST tie-breaking: equal-weight spanning
    trees share the sorted weight multiset.
    """
    if m.size < 1:
        raise InputError("tree volume needs at least one point")
    for i in range(m.size):
        for j in range(i + 1, m.size):
            if m.d[i][j] == 0:
                raise DegenerateMetricError(
                    f"points {i} and {j} coincide; tree volume would be 0"
                )
    out = 1
    for w in mst_edge_weights(m):
        out = out * w
    return out


def euclidean_volume(points) -> float:
    """(k-1)-dimensional volume of the simplex on k points in R^L, via the
    Gram determinant of the edge vectors from the first point."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise InputError("points must be a 2-d array-like")
    k, dim = pts.shape
    if k > dim + 1:
        raise InputError(f"{k} points need dimension at least {k - 1}, got {dim}")
    if k == 1:
        return 1.0
    edges = pts[1:] - pts[0]
    gram = edges @ edges.T
    det = float(np.linalg.det(gram))
    # degenerate simplices can give tiny negative determinants numerically
    return math.sqrt(max(det, 0.0)) / math.factorial(k - 1)


def ivol_sandwich(m: FiniteMetric):
    """Bounds (lower, upper) on the ideal volume:
    tvol/((k-1)! 2^((k-2)/2)) <= ivol <= tvol/(k-1)!."""
    k = m.size
    if k < 2:
        raise InputError("sandwich needs at least two points")
    tvol = tree_volume(m)
    upper = tvol / math.factorial(k - 1)
    lower = upper / (2.0 ** ((k - 2) / 2.0))
    return lower, upper


def harmonic_number(n: int) -> Fraction:
    return sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))


def reciprocal_sum_check(m: FiniteMetric, density, k: int):
    """Check sum over k-subsets of 1/tvol against n * (D * H_n / 2)^(k-1).

    Caller asserts the metric has local density at most ``density``.  Returns
    ``(lhs, rhs, ok)`` with a non-strict comparison; boundary cases can be
    tight.  The sums are Fractions when ``density`` and every distance are
    rational (``graphs.all_rational``), else floats.
    """
    n = m.size
    if n > 14:
        raise InputError("subset enumeration is limited to 14 points")
    if k < 1 or k > n:
        raise InputError(f"subset size {k} out of range 1..{n}")
    exact = all_rational([density, *chain.from_iterable(m.d)])
    if exact:
        m = FiniteMetric([[as_fraction(d) for d in row] for row in m.d])
        density = as_fraction(density)
    lhs = Fraction(0) if exact else 0.0
    one = Fraction(1) if exact else 1.0
    for idx in combinations(range(n), k):
        lhs += one / tree_volume(m.submetric(idx))
    hn = harmonic_number(n)
    if exact:
        rhs = n * (density * hn / 2) ** (k - 1)
    else:
        rhs = n * (float(density) * float(hn) / 2.0) ** (k - 1)
    return lhs, rhs, lhs <= rhs
