"""1-D building blocks of the multilevel transform, applied along an axis.

The lift works on rows of a contiguous lattice, the MGARD correction on
a view with the target axis moved to the front; either keeps the other
axes vectorized (GPU-MGARD's grid-processing idiom: one "thread" per fiber).

Naming follows the finite-element view: a fine grid of ``n`` nodes splits
into coarse (even-index) nodes and odd nodes; odd values are predicted by
linear interpolation of their even neighbors, and the prediction residual
is the detail coefficient. The optional MGARD correction projects the
residual back onto the coarse space via a tridiagonal mass-matrix solve.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.decompose.grid import coarse_size


def pairs(lattice: np.ndarray, axis: int, buf: np.ndarray):
    """``(even, odd, pred, run)`` of a contiguous *lattice* along *axis*
    for :func:`lift`: 3-D views with node rows on axis 1, *pred* a view
    of the flat scratch *buf*. An even extent ``n`` is the rows view
    ``(outer·n/2, 2·inner)`` (an even node, then its odd neighbour), so
    one ufunc call lifts every fiber, ``run = n/2`` rows each (the last
    axis, ``inner = 1``, is one flat stride-2 view); an odd extent is
    ``(outer, n, inner)`` split at stride 2."""
    n = lattice.shape[axis]
    inner = lattice[(0,) * (axis + 1)].size
    if n % 2:
        v = lattice.reshape(-1, n, inner)
        even, odd = v[:, 0::2], v[:, 1::2]
    else:
        rows = lattice.reshape(1, -1, 2 * inner)
        even, odd = rows[..., :inner], rows[..., inner:]
    return even, odd, buf[:odd.size].reshape(odd.shape), n // 2


def lift(even, odd, pred, run: int, op) -> None:
    """Apply ``op`` (``np.subtract`` to decompose, ``np.add`` to
    recompose) of the odd rows' prediction to *odd*, in place.

    Odd row ``i`` (axis 1) is predicted by ``(even[i] + even[i+1]) / 2``.
    With no even row past the last odd one (an even extent), each run's
    last odd row is predicted by its left neighbor alone — weights stay
    nonnegative and sum to one, which keeps L∞ error composition exact.
    Where runs of several fibers meet, the sum is taken with 0, not with
    the next fiber's first node (that sum could overflow), and is then
    overwritten.
    """
    m = even.shape[1] - 1
    head = pred[:, :m]
    if odd.shape[1] > run:
        head[...] = even[:, 1:]
        head[:, run - 1 :: run] = 0
        np.add(even[:, :-1], head, out=head)
    else:
        np.add(even[:, :-1], even[:, 1:], out=head)
    head *= 0.5
    if m < odd.shape[1]:
        pred[:, run - 1 :: run] = even[:, run - 1 :: run]
    op(odd, pred, out=odd)


def residual_load(detail: np.ndarray, n: int) -> np.ndarray:
    """Load vector ⟨residual, coarse hat functions⟩ for the MGARD correction.

    With unit fine spacing, the residual ``Σ d_i φ_{2i+1}`` tested against
    the coarse hat at node ``2j`` yields ``(d_{j-1} + d_j) / 2`` (one-sided
    at the boundaries). Spacing cancels against the mass matrix, so it is
    fixed at 1 here.
    """
    m = coarse_size(n)
    b = np.zeros((m,) + detail.shape[1:], dtype=detail.dtype)
    n_odd = detail.shape[0]
    # Odd node 2j+1 loads coarse nodes j and j+1; when n is even the last
    # odd node is the domain boundary and only loads its left neighbor.
    interior = n_odd if n % 2 == 1 else n_odd - 1
    b[:n_odd] += 0.5 * detail
    b[1 : interior + 1] += 0.5 * detail[:interior]
    return b


def coarse_mass_bands(m: int, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of the coarse-grid P1 mass matrix.

    Unit coarse spacing: interior diagonal 2/3, boundary diagonal 1/3,
    off-diagonal 1/6. Scaled by any common factor the correction is
    unchanged, so spacing is normalized out.
    """
    if m < 1:
        raise ValueError("mass matrix needs at least one node")
    diag = np.full(m, 2.0 / 3.0, dtype=dtype)
    if m >= 1:
        diag[0] = 1.0 / 3.0
        diag[-1] = 1.0 / 3.0
    if m == 1:
        diag[0] = 2.0 / 3.0  # degenerate single-node grid
    off = np.full(max(m - 1, 0), 1.0 / 6.0, dtype=dtype)
    return diag, off


def solve_tridiagonal(
    diag: np.ndarray, off: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Thomas-algorithm solve of a symmetric tridiagonal system.

    ``rhs`` may carry trailing batch axes; the O(m) sweep along axis 0 is
    vectorized across them — the same batching GPU tridiagonal kernels
    use. The system must be diagonally dominant (mass matrices are).
    """
    m = diag.shape[0]
    if rhs.shape[0] != m:
        raise ValueError("rhs leading axis must match matrix size")
    if m == 1:
        return rhs / diag[0]
    c_prime = np.empty(m - 1, dtype=np.float64)
    d_prime = np.empty_like(rhs, dtype=np.float64)
    c_prime[0] = off[0] / diag[0]
    d_prime[0] = rhs[0] / diag[0]
    for i in range(1, m):
        denom = diag[i] - off[i - 1] * c_prime[i - 1]
        if i < m - 1:
            c_prime[i] = off[i] / denom
        d_prime[i] = (rhs[i] - off[i - 1] * d_prime[i - 1]) / denom
    x = d_prime
    for i in range(m - 2, -1, -1):
        x[i] -= c_prime[i] * x[i + 1]
    return x.astype(rhs.dtype, copy=False)


def correction_from_detail(detail: np.ndarray, n: int) -> np.ndarray:
    """MGARD coarse correction ``z = M⁻¹ ⟨residual, coarse basis⟩``."""
    b = residual_load(detail, n)
    diag, off = coarse_mass_bands(b.shape[0])
    return solve_tridiagonal(diag, off, b)


@lru_cache(maxsize=64)
def _abs_correction_matrix(n: int) -> np.ndarray:
    """Entrywise |M⁻¹ R| as a dense (m, n_odd) matrix, cached per size.

    Used only to compute rigorous error-amplification weights for the
    MGARD mode: ``|z| ≤ |M⁻¹R| · |d|`` elementwise.
    """
    m = coarse_size(n)
    n_odd = n // 2
    eye = np.eye(n_odd, dtype=np.float64)
    cols = correction_from_detail(eye, n)  # (m, n_odd): column j = response
    return np.abs(cols)


def abs_correction_from_detail(detail: np.ndarray, n: int) -> np.ndarray:
    """Upper bound on |correction| given elementwise |detail| bounds."""
    mat = _abs_correction_matrix(n)
    # Contiguous, so BLAS sums in one order whatever the view's strides.
    flat = np.ascontiguousarray(detail).reshape(detail.shape[0], -1)
    out = mat @ flat
    return out.reshape((mat.shape[0],) + detail.shape[1:]).astype(
        detail.dtype, copy=False
    )
