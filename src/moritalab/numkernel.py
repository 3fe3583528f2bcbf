"""Dense complex linear algebra for the operator-algebra layer.

One numeric primitive carries everything: the Hermitian eigendecomposition.
Square roots, polar decompositions, Gram quotients, and ranks all derive
from it (or from the SVD for non-square systems). Every rank, null
direction and singularity decision uses the one fixed cutoff DEFAULT_TOL,
relative to the scale it measures; a caller's acceptance tolerance gates
measured residuals only and never moves these decisions.  Two sanity
checks keep their own fixed constants: ``hermitian_spectrum`` requires
its eigendecomposition to reconstruct the input within
1e-10 * (1 + max |eigenvalue|), and ``State`` requires its density to
have trace 1 within an absolute 1e-12.

Antilinear maps are stored as a plain matrix A acting by v -> A.conj(v),
always relative to the one fixed basis of the ambient space. Keeping every
formula in that single convention is what stops conjugations from drifting
between construction sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPSD, Singular

DEFAULT_TOL = 1e-8


def as_complex_matrix(a) -> np.ndarray:
    M = np.asarray(a, dtype=np.complex128)
    if M.ndim != 2:
        raise ValueError("expected a matrix")
    if not (np.all(np.isfinite(M.real)) and np.all(np.isfinite(M.imag))):
        raise ValueError("matrix has non-finite entries")
    return M


def operator_norm(A: np.ndarray) -> float:
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


def max_operator_norm(mats) -> float:
    """max(operator_norm(M) for M in mats), 0 for none, in one stacked SVD."""
    if len(mats) == 0 or mats[0].size == 0:
        return 0.0
    return float(np.linalg.norm(np.stack(mats), 2, axis=(1, 2)).max())


def norm_exceeds(A: np.ndarray, bound: float) -> bool:
    """operator_norm(A) > bound, deciding by the Frobenius norm when it can.

    The operator norm never exceeds the Frobenius norm, so the SVD only
    runs when the Frobenius norm is above the bound; the answer is the
    same either way.  A non-finite norm counts as exceeding: NaN compares
    False with everything and would otherwise read as within the bound.
    """
    fro = float(np.linalg.norm(A))
    if not math.isfinite(fro):
        return True
    return fro > bound and operator_norm(A) > bound


@dataclass(frozen=True)
class AntilinearOp:
    """v -> matrix . conj(v) in the ambient basis."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_complex_matrix(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ np.conj(v)

    def compose_antilinear(self, other: "AntilinearOp") -> np.ndarray:
        """self . other is linear: A1 . conj(A2) as a plain matrix."""
        return self.matrix @ np.conj(other.matrix)

    def compose_linear(self, M: np.ndarray) -> "AntilinearOp":
        """self . M, still antilinear."""
        return AntilinearOp(self.matrix @ np.conj(M))


def hermitian_spectrum(H: np.ndarray):
    """Eigenvalues (ascending) and orthonormal eigenvectors of Hermitian H."""
    H = as_complex_matrix(H)
    scale = operator_norm(H)
    if operator_norm(H - H.conj().T) > DEFAULT_TOL * (1.0 + scale):
        raise ValueError("matrix is not Hermitian")
    w, V = np.linalg.eigh((H + H.conj().T) / 2.0)
    recon = (V * w) @ V.conj().T
    if operator_norm(H - recon) > 1e-10 * (1.0 + float(np.max(np.abs(w), initial=0.0))):
        raise ValueError("eigendecomposition failed to reconstruct input")
    return w, V


def hermitian_power(H: np.ndarray, power: float) -> np.ndarray:
    """H^power for Hermitian PSD H via its spectrum."""
    w, V = hermitian_spectrum(H)
    cut = DEFAULT_TOL * max(float(np.max(w, initial=0.0)), 1.0)
    if np.any(w < -cut):
        raise NotPSD("negative eigenvalue beyond tolerance")
    w = np.clip(w, 0.0, None)
    if power < 0 and np.any(w <= cut):
        raise Singular("negative power of a singular matrix")
    return (V * np.power(w, power)) @ V.conj().T


def polar_antilinear(S: AntilinearOp):
    """S = J . Delta^{1/2} with J antiunitary and Delta = S*S positive."""
    M = S.matrix
    delta = M.T @ np.conj(M)
    w, V = hermitian_spectrum(delta)
    w = np.clip(w, 0.0, None)
    smin, smax = float(np.sqrt(w[0])), float(np.sqrt(w[-1]))
    if smin <= DEFAULT_TOL * max(1.0, smax):
        raise Singular("antilinear operator is numerically singular")
    inv_sqrt = (V * np.power(w, -0.5)) @ V.conj().T
    J = AntilinearOp(M @ np.conj(inv_sqrt))
    return J, delta


def null_space(A: np.ndarray, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel.

    Rank cutoff is DEFAULT_TOL relative to the larger of the top singular
    value and scale. Pass the norm scale of the operands whose cancellation
    produced A when A itself may be pure rounding noise; the default
    keeps the cutoff relative to A alone.
    """
    A = as_complex_matrix(A)
    if A.shape[0] == 0 or A.size == 0:
        return np.eye(A.shape[1], dtype=np.complex128)
    _, s, Vh = np.linalg.svd(A)
    top = s[0] if s.size else 0.0
    rank = int(np.sum(s > DEFAULT_TOL * max(top, scale, 1e-300)))
    return Vh[rank:].conj().T


def orthonormal_columns(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space."""
    A = as_complex_matrix(A)
    if A.size == 0:
        return np.zeros((A.shape[0], 0), dtype=np.complex128)
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    top = s[0] if s.size else 0.0
    rank = int(np.sum(s > DEFAULT_TOL * max(top, 1e-300)))
    return U[:, :rank]


def containment_residual(inner: np.ndarray, outer: np.ndarray) -> float:
    """Worst relative distance from a column of `inner` to span(outer)."""
    Q = orthonormal_columns(outer)
    worst = 0.0
    for j in range(inner.shape[1]):
        v = inner[:, j]
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            continue
        res = float(np.linalg.norm(v - Q @ (Q.conj().T @ v))) / nv
        worst = max(worst, res)
    return worst


def subspaces_equal(A: np.ndarray, B: np.ndarray) -> tuple[bool, float]:
    """Same span at the fixed cutoff, and the mutual containment residual."""
    QA, QB = orthonormal_columns(A), orthonormal_columns(B)
    res = max(containment_residual(QA, QB), containment_residual(QB, QA))
    return (QA.shape[1] == QB.shape[1] and res <= DEFAULT_TOL), res


def joint_null_space(blocks, width: int, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the common kernel of matrices with width columns.

    Works on the normal matrix sum of A*A: eigenvalues up to DEFAULT_TOL
    relative to max(top, scale**2) count as null, which is a singular-value
    cutoff of sqrt(DEFAULT_TOL) = 1e-4 relative to max(sqrt(top), scale).
    That coarser cutoff is fine for systems whose nonzero singular values
    are far from zero, and one small eigendecomposition replaces a tall
    stacked SVD.
    """
    B = np.zeros((width, width), dtype=np.complex128)
    count = 0
    for A in blocks:
        A = as_complex_matrix(A)
        if A.shape[1] != width:
            raise ValueError("block column count mismatch")
        B += A.conj().T @ A
        count += 1
    if count == 0:
        return np.eye(width, dtype=np.complex128)
    w, V = np.linalg.eigh(B)
    top = float(np.max(w, initial=0.0))
    cut = DEFAULT_TOL * max(top, scale * scale)
    return V[:, w <= cut]


def commutant(generators, dim: int) -> np.ndarray:
    """Orthonormal basis of {X : XA = AX for all given A}.

    Returned as a (dim*dim) x k matrix of row-major vectorized solutions of
    the stacked Sylvester system.
    """
    eye = np.eye(dim, dtype=np.complex128)
    blocks = []
    scale = 0.0
    for A in generators:
        A = as_complex_matrix(A)
        if A.shape != (dim, dim):
            raise ValueError("generator dimension mismatch")
        blocks.append(np.kron(A, eye) - np.kron(eye, A.T))
        scale = max(scale, operator_norm(A))
    return joint_null_space(blocks, dim * dim, scale=1.0 + scale)


def matrices_to_columns(mats) -> np.ndarray:
    """Stack square matrices as row-major vectorized columns."""
    mats = [as_complex_matrix(M) for M in mats]
    if not mats:
        return np.zeros((0, 0), dtype=np.complex128)
    d = mats[0].shape[0] * mats[0].shape[1]
    return np.stack([M.reshape(d) for M in mats], axis=1)


@dataclass(frozen=True)
class GramQuotient:
    """Hilbert-space quotient of a PSD pre-inner product.

    section columns are orthonormal for the G-inner product; project sends
    an ambient vector to its quotient coordinates, and project @ section is
    the identity on the quotient.
    """

    gram: np.ndarray
    section: np.ndarray   # ambient x rank
    project: np.ndarray   # rank x ambient
    rank: int

    @property
    def ambient_dim(self) -> int:
        return self.gram.shape[0]


def gram_quotient(G: np.ndarray, scale: float = 0.0) -> GramQuotient:
    """Quotient of the pre-inner product <v, w> = w* G v by its null space.

    Eigenvalues up to DEFAULT_TOL relative to max(top eigenvalue, scale) are
    treated as null directions; scale guards against a G that is entirely
    rounding noise being kept as a genuine line.
    """
    G = as_complex_matrix(G)
    norm = operator_norm(G)
    if operator_norm(G - G.conj().T) > DEFAULT_TOL * (1.0 + norm):
        raise NotPSD("pre-inner product matrix is not Hermitian")
    Gs = (G + G.conj().T) / 2.0
    w, V = np.linalg.eigh(Gs) if Gs.size else (np.zeros(0), np.zeros((0, 0)))
    top = float(np.max(w, initial=0.0))
    if np.any(w < -DEFAULT_TOL * max(top, 1.0)):
        raise NotPSD("pre-inner product has a negative direction")
    cut = DEFAULT_TOL * max(top, scale)
    keep = w > cut if cut > 0.0 else np.zeros(len(w), dtype=bool)
    wk = w[keep]
    Vk = V[:, keep]
    section = Vk * np.power(wk, -0.5)
    project = (Vk * np.power(wk, 0.5)).conj().T
    return GramQuotient(Gs, section, project, int(np.sum(keep)))


def polar_unitary(T: np.ndarray) -> np.ndarray:
    """Unitary factor of an invertible square matrix."""
    T = as_complex_matrix(T)
    if T.shape[0] != T.shape[1]:
        raise ValueError("polar factor needs a square matrix")
    if T.size == 0:
        return T
    U, s, Vh = np.linalg.svd(T)
    if s[-1] <= DEFAULT_TOL * max(s[0], 1e-300):
        raise Singular("matrix has no unitary polar factor")
    return U @ Vh
