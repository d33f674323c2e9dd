"""Contraction rules for the multidimensional process conventions.

Shapes (trailing axes; any number of leading batch axes is allowed):
  - VecD  z: (n, d)      -- n entries, each a vector in R^d
  - MatD  A: (n, n, d)   -- n x n entries, each a vector in R^d
  - plain matrix: (n, n); plain vector: (n,)

The only multiplications used anywhere in the package are the three
contractions below plus ordinary matrix products of plain matrices.
"""

from __future__ import annotations

import numpy as np


def contract_az(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(A z)_i = sum_j A[i, j] . z[j], an R^n vector.

    a: (..., n, n, d), z: (..., n, d) -> (..., n)
    """
    a = np.asarray(a, dtype=float)
    z = np.asarray(z, dtype=float)
    if a.shape[-1] != z.shape[-1] or a.shape[-2] != z.shape[-2]:
        raise ValueError(f"shape mismatch: A {a.shape}, z {z.shape}")
    return np.einsum("...ijd,...jd->...i", a, z)


def contract_adb(a: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Plain matrix (A dB)_{ij} = A[i, j] . dB, used in dS = S (A dB).

    a: (..., n, n, d), db: (..., d) -> (..., n, n)
    """
    return np.einsum("...ijd,...d->...ij", np.asarray(a, float), np.asarray(db, float))


def mat_square(a: np.ndarray) -> np.ndarray:
    """R^d-contracted matrix square (A^2)_{ij} = sum_k A[i, k] . A[k, j].

    Appears in the drift of the inverse-exponential dynamics.
    a: (..., n, n, d) -> (..., n, n)
    """
    a = np.asarray(a, dtype=float)
    *batch, n, _, d = a.shape
    # One matmul contracting the (k, d) pair: a[i, (k, d)] @ a[(k, d), j].
    left = a.reshape(*batch, n, n * d)
    right = np.swapaxes(a, -2, -1).reshape(*batch, n * d, n)
    return left @ right


# Matrices per block of the closed-form 3 x 3 norm.  Bounding the batch keeps
# its elementwise temporaries small, so large batches add nothing to peak RSS.
_NORM3_BLOCK = 8192

# Where det(B) / 2 lies within this of -1, the two largest eigenvalues of
# m^T m nearly coincide and arccos amplifies rounding in det(B) by up to
# 1 / sqrt(eps).  Those few matrices go to the SVD; everywhere else the
# closed form stays within about 6e-15 of it.
_NORM3_NEAR_DOUBLE = 1e-3


def operator_norm(m: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a batch.

    m: (..., n, n) -> (...).  Closed forms cover the sizes used in this
    package:
      - n = 1: |m|.
      - n = 2: (hypot(a + d, c - b) + hypot(a - d, b + c)) / 2 (Blinn 1996).
        Unlike the Frobenius/determinant formula it keeps full accuracy on
        scaled rotations, which every Emery S is.
      - n = 3: square root of the largest eigenvalue of m^T m, by the
        trigonometric method for symmetric 3 x 3 matrices (Smith 1961),
        except where its two largest eigenvalues nearly coincide (SVD there).
    Larger n falls back to the batched SVD.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[-1]
    if n == 1:
        return np.abs(m[..., 0, 0])
    if n == 2:
        a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
        return 0.5 * (np.hypot(a + d, c - b) + np.hypot(a - d, b + c))
    if n == 3:
        return _operator_norm_3(m)
    return np.linalg.svd(m, compute_uv=False)[..., 0]


def _operator_norm_3(m: np.ndarray) -> np.ndarray:
    """operator_norm for n = 3, evaluated in blocks of _NORM3_BLOCK matrices."""
    flat = m.reshape(-1, 9)
    out = np.empty(flat.shape[0])
    for lo in range(0, flat.shape[0], _NORM3_BLOCK):
        out[lo:lo + _NORM3_BLOCK] = _largest_singular_3(flat[lo:lo + _NORM3_BLOCK])
    return out.reshape(m.shape[:-2])


def _largest_singular_3(flat: np.ndarray) -> np.ndarray:
    """Largest singular value of row-major 3 x 3 matrices, flat: (N, 9)."""
    # Divide each matrix by a power of two near its largest entry: exact, and
    # it keeps the fourth powers of the entries in p from under- or overflow.
    entries = flat.T.copy()
    _, exponent = np.frexp(np.abs(entries).max(axis=0))
    scale = np.ldexp(1.0, exponent)
    entries /= scale
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = entries
    # Gram matrix g = m^T m (symmetric).
    g00 = m00 * m00 + m10 * m10 + m20 * m20
    g11 = m01 * m01 + m11 * m11 + m21 * m21
    g22 = m02 * m02 + m12 * m12 + m22 * m22
    g01 = m00 * m01 + m10 * m11 + m20 * m21
    g02 = m00 * m02 + m10 * m12 + m20 * m22
    g12 = m01 * m02 + m11 * m12 + m21 * m22
    # Largest eigenvalue q + 2 p cos(arccos(det(B) / 2) / 3), where
    # B = (g - q I) / p is scaled to unit size before its determinant is taken.
    q = (g00 + g11 + g22) / 3.0
    b00, b11, b22 = g00 - q, g11 - q, g22 - q
    p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22
                 + 2.0 * (g01 * g01 + g02 * g02 + g12 * g12)) / 6.0)
    # p = 0 only for g = q I, whose eigenvalue is q: B = 0 gives exactly that.
    p_safe = np.where(p > 0, p, 1.0)
    b00, b11, b22 = b00 / p_safe, b11 / p_safe, b22 / p_safe
    b01, b02, b12 = g01 / p_safe, g02 / p_safe, g12 / p_safe
    det = (b00 * (b11 * b22 - b12 * b12) - b01 * (b01 * b22 - b12 * b02)
           + b02 * (b01 * b12 - b11 * b02))
    half_det = 0.5 * det
    phi = np.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0
    out = scale * np.sqrt(q + 2.0 * p * np.cos(phi))
    near_double = half_det < _NORM3_NEAR_DOUBLE - 1.0
    if near_double.any():
        out[near_double] = np.linalg.svd(flat[near_double].reshape(-1, 3, 3),
                                         compute_uv=False)[:, 0]
    return out
