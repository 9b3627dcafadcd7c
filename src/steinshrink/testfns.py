"""Vector fields with Jacobian access for identity-residual testing.

Identity checks and risk estimates only ever need one number per row, the
contraction <W(x), grad f(x)> = sum_ij W_ij d_j f_i(x) against a weight
matrix W (a Stein kernel, a covariance).  `Weights` holds W in structured
form and exposes the few reductions the closed forms need, each in
O(rows * d) memory; `TestFn.contract` evaluates the contraction from them.
`TestFn.contract_replaced` is the zero-bias analogue for coordinate
replacement, sum_i w_i d_i f_i(X^i) with X^i = X except x_i := R_i.
No code path of the package calls the dense `TestFn.jac` or the single
`TestFn.partial`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvaluationError

_SINGULARITY_EPS = 1e-12


def sq_norms(X: np.ndarray) -> np.ndarray:
    """||x||^2 rowwise, with no (rows, d) temporary."""
    return np.einsum("ij,ij->i", X, X)


def _per_row(value, rows: int) -> np.ndarray:
    """A per-row (rows,) array from a scalar or an array that already is one."""
    return np.broadcast_to(np.asarray(value, dtype=float), (rows,))


class Weights:
    """Per-row weight matrices W_m, seen only through O(rows * d) reductions.

    Reductions may return a scalar when W does not vary with the row.
    """

    def trace(self):
        """Tr W_m."""
        raise NotImplementedError

    def quad(self, X: np.ndarray) -> np.ndarray:
        """x_m' W_m x_m."""
        raise NotImplementedError

    def inner(self, L: np.ndarray):
        """<W_m, L> for a fixed (d, d) matrix L."""
        raise NotImplementedError

    def diagonal(self) -> np.ndarray:
        """diag(W_m), as (d,) or (rows, d)."""
        raise NotImplementedError

    def frob_sq(self):
        """||W_m||_F^2."""
        raise NotImplementedError

    def transformed(self, A: np.ndarray) -> "Weights":
        """The weights A W_m A'."""
        raise NotImplementedError

    def scaled(self, a: float) -> "Weights":
        """The weights a W_m."""
        raise NotImplementedError

    def rows(self, a: int, b: int) -> "Weights":
        """The weights of rows a:b."""
        raise NotImplementedError


class FixedWeights(Weights):
    """W_m = scale_m M for a fixed M, held as a (d, d) matrix or, when M is
    diagonal, as its (d,) diagonal; scale None means 1."""

    def __init__(self, matrix, scale=None):
        self.matrix = np.asarray(matrix, dtype=float)
        self.scale = scale

    def _scaled(self, value):
        return value if self.scale is None else self.scale * value

    def _diagonal(self) -> np.ndarray:
        return self.matrix if self.matrix.ndim == 1 else np.diagonal(self.matrix)

    def trace(self):
        return self._scaled(float(np.sum(self._diagonal())))

    def quad(self, X):
        if self.matrix.ndim == 1:  # no (rows, d) temporary
            q = np.einsum("mi,mi,i->m", X, X, self.matrix)
        else:
            q = np.einsum("mi,mi->m", X @ self.matrix, X)
        return self._scaled(q)

    def inner(self, L):
        if self.matrix.ndim == 1:
            return self._scaled(float(self.matrix @ np.diagonal(L)))
        return self._scaled(float(np.vdot(self.matrix, L)))

    def diagonal(self):
        diag = self._diagonal()
        return diag if self.scale is None else self.scale[:, None] * diag

    def frob_sq(self):
        norm_sq = float(np.vdot(self.matrix, self.matrix))
        return norm_sq if self.scale is None else self.scale**2 * norm_sq

    def transformed(self, A):
        AM = A * self.matrix if self.matrix.ndim == 1 else A @ self.matrix
        return FixedWeights(AM @ A.T, self.scale)

    def scaled(self, a):
        return FixedWeights(a * self.matrix, self.scale)

    def rows(self, a, b):
        return self if self.scale is None else self.rescaled(self.scale[a:b])

    def rescaled(self, scale) -> "FixedWeights":
        """The weights scale_m M of this M."""
        out = copy.copy(self)
        out.scale = scale
        return out


def _as_matrix(matrix: np.ndarray) -> np.ndarray:
    """The (d, d) matrix M of `FixedWeights.matrix`, which may hold its
    diagonal only: for the laws and kernels whose covariance is dense."""
    return np.diag(matrix) if matrix.ndim == 1 else matrix


class DiagonalWeights(Weights):
    """W_m = B diag(D_m) B' for per-row diagonals D (rows, k) or (1, k); B None means I."""

    def __init__(self, diag, basis=None):
        self.diag = np.asarray(diag, dtype=float)
        self.basis = basis

    def trace(self):
        if self.basis is None:
            return self.diag.sum(axis=1)
        return self.diag @ np.einsum("ik,ik->k", self.basis, self.basis)

    def quad(self, X):
        Z = X if self.basis is None else X @ self.basis
        return np.einsum("mk,mk,mk->m", Z, Z, self.diag)

    def inner(self, L):
        if self.basis is not None:
            L = self.basis.T @ L @ self.basis
        return self.diag @ np.diagonal(L)

    def diagonal(self):
        if self.basis is None:
            return self.diag
        return self.diag @ (self.basis**2).T

    def frob_sq(self):
        if self.basis is None:
            return np.einsum("mk,mk->m", self.diag, self.diag)
        gram = self.basis.T @ self.basis
        return np.einsum("mk,mk->m", self.diag @ gram**2, self.diag)

    def transformed(self, A):
        basis = A if self.basis is None else A @ self.basis
        return DiagonalWeights(self.diag, basis)

    def scaled(self, a):
        return DiagonalWeights(a * self.diag, self.basis)

    def rows(self, a, b):
        return self if len(self.diag) == 1 else DiagonalWeights(self.diag[a:b], self.basis)


class DenseWeights(Weights):
    """Per-row dense matrices (rows, d, d), for kernels without structure."""

    def __init__(self, mats):
        self.mats = mats

    def trace(self):
        return np.einsum("mii->m", self.mats)

    def quad(self, X):
        return np.einsum("mi,mij,mj->m", X, self.mats, X)

    def inner(self, L):
        return np.einsum("mij,ij->m", self.mats, L)

    def diagonal(self):
        return np.einsum("mii->mi", self.mats)

    def frob_sq(self):
        return np.einsum("mij,mij->m", self.mats, self.mats)

    def rows(self, a, b):
        return DenseWeights(self.mats[a:b])


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class TestFn:
    name: str
    f: Callable[[np.ndarray], np.ndarray]  # (m, d) -> (m, d)
    # jac and partial stay only because the bench tracer rebuilds a TestFn with them by name
    jac: Callable[[np.ndarray], np.ndarray]  # (m, d) -> (m, d, d), the dense oracle
    partial: Callable[[np.ndarray, int, int], np.ndarray]  # d_j f_i, (m,)
    contract: Callable[[np.ndarray, Weights], np.ndarray]  # <W, grad f(x)>, (m,)
    # sum_i w_i d_i f_i(X^i), X^i = X with x_i := R_i; (m,) or a scalar
    contract_replaced: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    needs_origin_guard: bool = False

    def guard(self, X: np.ndarray) -> None:
        if self.needs_origin_guard:
            sq = np.einsum("ij,ij->i", X, X)
            if np.any(sq < _SINGULARITY_EPS):
                raise EvaluationError(f"{self.name} evaluated within 1e-12 of the origin")


def linear_map(A: np.ndarray) -> TestFn:
    A = np.asarray(A, dtype=float)

    def f(X):
        return X @ A.T

    def jac(X):
        return np.broadcast_to(A, (X.shape[0],) + A.shape).copy()

    def partial(X, i, j):
        return np.full(X.shape[0], A[i, j])

    def contract(X, W):
        return _per_row(W.inner(A), X.shape[0])

    def contract_replaced(X, R, w):
        return float(np.diagonal(A) @ w)

    return TestFn(
        name="linear",
        f=f,
        jac=jac,
        partial=partial,
        contract=contract,
        contract_replaced=contract_replaced,
    )


def coordinate_quadratic(i: int) -> TestFn:
    """f(x) = x_i^2 e_i; the only nonzero partial is d_i f_i = 2 x_i."""

    def f(X):
        out = np.zeros_like(X)
        out[:, i] = X[:, i] ** 2
        return out

    def jac(X):
        m, d = X.shape
        out = np.zeros((m, d, d))
        out[:, i, i] = 2.0 * X[:, i]
        return out

    def partial(X, a, b):
        if a == i and b == i:
            return 2.0 * X[:, i]
        return np.zeros(X.shape[0])

    def contract(X, W):
        return 2.0 * X[:, i] * W.diagonal()[..., i]

    def contract_replaced(X, R, w):
        return 2.0 * R[:, i] * w[i]

    return TestFn(
        name=f"coordinate_quadratic_{i}",
        f=f,
        jac=jac,
        partial=partial,
        contract=contract,
        contract_replaced=contract_replaced,
    )


def g0_contract(X: np.ndarray, W: Weights, sq: np.ndarray | None = None) -> np.ndarray:
    """<W, grad g0(x)> = Tr W / ||x||^2 - 2 x'Wx / ||x||^4, rowwise; `sq` is
    ||x||^2 when the caller has it."""
    if sq is None:
        sq = sq_norms(X)
    return W.trace() / sq - 2.0 * W.quad(X) / sq**2


def g0_replaced(X: np.ndarray, R: np.ndarray, w: np.ndarray, guard: bool = False) -> np.ndarray:
    """sum_i w_i d_i g0_i(X^i) rowwise, X^i = X with x_i := R_i.

    d_i g0_i(X^i) = 1/s_i - 2 R_i^2 / s_i^2, s_i = ||x||^2 - x_i^2 + R_i^2,
    so no X^i is built: two `(rows, d)` arrays, computed in place and
    contracted by `np.einsum`, since BLAS threads would oversubscribe the
    cores from a draw task's thread.  The engine's callers hand it a row
    block (`_mc.in_blocks`), so the two stay in cache.  With `guard`, raises
    when some X^i lies within 1e-12 of the origin, as `TestFn.guard` would.
    """
    g, s = np.square(R), np.square(X)
    np.subtract(sq_norms(X)[:, None], s, out=s)
    s += g
    if guard and np.any(s < _SINGULARITY_EPS):
        raise EvaluationError("g0 evaluated within 1e-12 of the origin")
    g /= s
    g /= s
    g *= -2.0
    g += np.reciprocal(s, out=s)
    return np.einsum("mi,i->m", g, w)


def shrink_direction() -> TestFn:
    """g0(x) = x / ||x||^2, the field behind the shrinkage estimator."""

    def f(X):
        sq = np.einsum("ij,ij->i", X, X)
        return X / sq[:, None]

    def jac(X):
        m, d = X.shape
        sq = np.einsum("ij,ij->i", X, X)
        out = np.zeros((m, d, d))
        idx = np.arange(d)
        out[:, idx, idx] = (1.0 / sq)[:, None]
        out -= 2.0 * np.einsum("mi,mj->mij", X, X) / (sq**2)[:, None, None]
        return out

    def partial(X, i, j):
        sq = np.einsum("ij,ij->i", X, X)
        val = -2.0 * X[:, i] * X[:, j] / sq**2
        if i == j:
            val = val + 1.0 / sq
        return val

    def contract_replaced(X, R, w):
        return g0_replaced(X, R, w, guard=True)

    return TestFn(
        name="g0",
        f=f,
        jac=jac,
        partial=partial,
        contract=g0_contract,
        contract_replaced=contract_replaced,
        needs_origin_guard=True,
    )
