"""Polyhedral matrix norms, dual pairings and deviatoric/spherical projections.

Symmetric matrices are stored by their unique components.  The entrywise
1-norm counts off-diagonal entries twice (full-matrix sum), which makes
(l1, linf) an exact dual pair under the full-matrix pairing s:e.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

L1 = "l1"
LINF = "linf"

# unique-component ordering per dimension: diagonal first, then off-diagonals
_COMP_POSITIONS = {
    1: ((0, 0),),
    2: ((0, 0), (1, 1), (0, 1)),
    3: ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1)),
}


class NormError(ValueError):
    """Unknown norm identifier or dimension mismatch."""


def n_comps(dim: int) -> int:
    return dim * (dim + 1) // 2


def comp_positions(dim: int):
    return _COMP_POSITIONS[dim]


def comp_weights(dim: int) -> np.ndarray:
    """Multiplicity of each unique component in the full matrix (1 or 2)."""
    return np.array([1.0 if i == j else 2.0 for i, j in _COMP_POSITIONS[dim]])


@dataclass(frozen=True)
class SymMatrix:
    """Symmetric dim x dim matrix stored by unique components.

    Component order: diagonal entries first, then off-diagonals
    (dim 3: 11, 22, 33, 23, 13, 12).  dim 1 is the degenerate scalar
    case used by bar meshes.
    """

    dim: int
    comps: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise NormError(f"unsupported matrix dimension {self.dim}")
        c = np.asarray(self.comps, dtype=float)
        if c.shape != (n_comps(self.dim),):
            raise NormError(
                f"dim {self.dim} needs {n_comps(self.dim)} components, got {c.shape}")
        object.__setattr__(self, "comps", c)

    @classmethod
    def zero(cls, dim: int) -> "SymMatrix":
        return cls(dim, np.zeros(n_comps(dim)))

    @classmethod
    def from_matrix(cls, m) -> "SymMatrix":
        m = np.asarray(m, dtype=float)
        dim = m.shape[0]
        if m.shape != (dim, dim) or not np.allclose(m, m.T, atol=1e-12):
            raise NormError("expected a square symmetric matrix")
        return cls(dim, np.array([m[i, j] for i, j in _COMP_POSITIONS[dim]]))

    def as_matrix(self) -> np.ndarray:
        m = np.zeros((self.dim, self.dim))
        for c, (i, j) in zip(self.comps, _COMP_POSITIONS[self.dim]):
            m[i, j] = c
            m[j, i] = c
        return m


def embed3(m: SymMatrix) -> SymMatrix:
    """Embed into 3x3 with zero third (and second) row/column."""
    if m.dim == 3:
        return m
    full = np.zeros((3, 3))
    full[: m.dim, : m.dim] = m.as_matrix()
    return SymMatrix.from_matrix(full)


def mat_norm(m: SymMatrix, norm_id: str) -> float:
    """Entrywise matrix norm over all dim^2 positions."""
    if norm_id == L1:
        return float(np.sum(comp_weights(m.dim) * np.abs(m.comps)))
    if norm_id == LINF:
        return float(np.max(np.abs(m.comps))) if m.comps.size else 0.0
    raise NormError(f"unknown norm id {norm_id!r}")


def vec_norm(v, norm_id: str) -> float:
    v = np.asarray(v, dtype=float)
    if norm_id == L1:
        return float(np.sum(np.abs(v)))
    if norm_id == LINF:
        return float(np.max(np.abs(v))) if v.size else 0.0
    raise NormError(f"unknown norm id {norm_id!r}")


def dual_norm_id(norm_id: str) -> str:
    if norm_id == L1:
        return LINF
    if norm_id == LINF:
        return L1
    raise NormError(f"unknown norm id {norm_id!r}")


def dual_pairing(s: SymMatrix, e: SymMatrix) -> float:
    """Full-matrix contraction sum_ij s_ij e_ij (off-diagonals twice)."""
    if s.dim != e.dim:
        raise NormError(f"dimension mismatch: {s.dim} vs {e.dim}")
    return float(np.sum(comp_weights(s.dim) * s.comps * e.comps))


def proj_spherical(m: SymMatrix) -> SymMatrix:
    """Spherical (pressure) part (tr m / 3) I of the 3x3 embedding."""
    m3 = embed3(m)
    p = np.trace(m3.as_matrix()) / 3.0
    return SymMatrix.from_matrix(p * np.eye(3))


def proj_deviatoric(m: SymMatrix) -> SymMatrix:
    """Deviatoric (traceless) part of the 3x3 embedding."""
    m3 = embed3(m)
    return SymMatrix.from_matrix(m3.as_matrix() - proj_spherical(m).as_matrix())


def yield_value(s: SymMatrix, norm_id: str) -> float:
    """Yield seminorm: norm of the deviatoric part; vanishes on spherical matrices."""
    return mat_norm(proj_deviatoric(s), norm_id)


def deviatoric_dual_value(e: SymMatrix) -> float:
    """Dual seminorm budget for strains: min over spherical shifts p of
    the entrywise 1-norm of embed3(e) + p I.

    This is the norm dual to the yield seminorm on traceless matrices;
    for plane-strain embeddings of isochoric 2D strains it coincides with
    the plain entrywise 1-norm.  The minimizing shift is the median of
    the negated diagonal.
    """
    e3 = embed3(e)
    diag = e3.comps[:3]
    p = -float(np.sort(diag)[1])  # median of the three
    shifted = e3.comps.copy()
    shifted[:3] += p
    return float(np.sum(comp_weights(3) * np.abs(shifted)))

