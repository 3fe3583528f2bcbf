"""Dense complex linear algebra for the operator-algebra layer.

One numeric primitive carries everything: the Hermitian eigendecomposition,
taken once per matrix.  Every power is read off that one spectrum
(spectral_powers, hermitian_powers): a standard form decomposes only its
density, as its modular data are closed forms in the density's powers.
Gram quotients and ranks derive from it too (or from the SVD for
non-square systems). Every rank, null
direction and singularity decision uses the one fixed cutoff DEFAULT_TOL,
relative to the scale it measures; a caller's acceptance tolerance gates
measured residuals only and never moves these decisions.  Two sanity
checks keep their own fixed constants: ``hermitian_spectrum`` requires
its eigendecomposition to reconstruct the input within
1e-10 * (1 + max |eigenvalue|), and ``State`` requires its density to
have trace 1 within an absolute 1e-12.  The spectrum's checks, this one
and Hermitian within DEFAULT_TOL * (1 + ||H||), run behind the Frobenius
screen of norm_exceeds with their bounds unchanged.

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
    """Largest singular value; 0 with no SVD when A has no nonzero entry."""
    return float(np.linalg.norm(A, 2)) if np.any(A) else 0.0


def _frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Each matrix's Frobenius norm, summed over the real and imaginary
    views: no stack-sized temporary, and no warning on overflow."""
    if not np.iscomplexobj(stack):
        return np.sqrt(np.einsum("kij,kij->k", stack, stack))
    return np.sqrt(np.einsum("kij,kij->k", stack.real, stack.real)
                   + np.einsum("kij,kij->k", stack.imag, stack.imag))


def _operator_norms(stack: np.ndarray, live: np.ndarray) -> list[np.ndarray]:
    """Operator norms of the matrices marked live, one stacked SVD per run of
    consecutive ones over a view of the stack, so nothing is copied.  Each
    matrix's SVD is the one a single stacked call makes, bit for bit."""
    if live.all():
        return [np.linalg.norm(stack, 2, axis=(1, 2))]
    edges = np.flatnonzero(np.diff(live, prepend=False, append=False))
    return [np.linalg.norm(stack[a:b], 2, axis=(1, 2)) for a, b in zip(edges[::2], edges[1::2])]


def max_operator_norm(mats) -> float:
    """max(operator_norm(M) for M in mats), 0 for none: max_operator_norm_of
    over the sequence, its SVDs screened."""
    return max_operator_norm_of(mats.__getitem__, len(mats))


def max_operator_norm_of(term, count: int) -> float:
    """max(operator_norm(term(k)) for k in range(count)), 0 for none, SVDs
    screened, with one term alive at a time besides the largest.

    The Frobenius norm is never below the operator norm (Golub and Van
    Loan, Matrix Computations, 2.3), so once the term of largest Frobenius
    norm has its operator norm, only terms whose Frobenius norm exceeds
    that value can beat it.  A first pass keeps each term's Frobenius
    norm, then only the terms that pass the screen are formed again, one
    SVD each; term(k) must give the same matrix on every call.  The
    DEFAULT_TOL margin on the screen covers rounding in either norm, so
    the result is the value the loop gives, bit for bit.  Terms with no
    nonzero entry read 0 with no SVD.
    """
    fro, top, kept = [], 0, None
    for k in range(count):
        M = term(k)
        fro.append(math.sqrt(np.vdot(M, M).real))
        if kept is None or fro[k] > fro[top]:
            top, kept = k, M
    if kept is None:
        return 0.0
    best = operator_norm(kept)
    return max([best] + [operator_norm(term(k)) for k, f in enumerate(fro)
                         if k != top and f * (1.0 + DEFAULT_TOL) > best])


def norm_exceeds(A: np.ndarray, bound: float) -> bool:
    """operator_norm(M) > bound for the matrix A or for some M in a stack A.

    The SVD only runs on matrices whose Frobenius norm, never below the
    operator norm, is above the bound or overflows (the SVD scales finite
    entries).  A non-finite entry counts as exceeding, without a warning.
    The Frobenius norms are summed over real and imaginary views and the
    SVDs read views (_operator_norms), so no temporary is the size of the
    stack.
    """
    stack = np.asarray(A)
    stack = stack[None] if stack.ndim == 2 else stack
    if stack.dtype.kind not in "fc":
        stack = stack.astype(np.float64)
    fro = _frobenius_norms(stack)
    finite = np.isfinite(fro)
    if not finite.all() and not np.isfinite(stack[~finite]).all():
        return True
    live = fro > bound
    return bool(live.any()) and any(bool(np.any(norms > bound))
                                    for norms in _operator_norms(stack, live))


def _norm_within(A: np.ndarray, bound: float) -> bool:
    """operator_norm(A) <= bound; never for a non-finite A, the mark of an overflow."""
    return bool(np.all(np.isfinite(A))) and operator_norm(A) <= bound


def hermitian_spectrum(H: np.ndarray):
    """Eigenvalues (ascending) and orthonormal eigenvectors of Hermitian H.

    H/2 + H*/2 never overflows, and is (H + H*)/2 bit for bit away from
    overflow and subnormals.  H - H* or the spectrum can overflow near the
    float limit; the non-finite entry fails the next check, a ValueError.
    """
    H = as_complex_matrix(H)
    with np.errstate(over="ignore", invalid="ignore"):
        skew = H - H.conj().T  # each check's SVDs run only where the screen cannot clear it
        if norm_exceeds(skew, DEFAULT_TOL) \
                and not _norm_within(skew, DEFAULT_TOL * (1.0 + operator_norm(H))):
            raise ValueError("matrix is not Hermitian")
        try:
            w, V = np.linalg.eigh(H / 2.0 + H.conj().T / 2.0)
        except np.linalg.LinAlgError:
            raise ValueError("eigendecomposition failed to reconstruct input") from None
        miss = H - (V * w) @ V.conj().T
        bound = 1e-10 * (1.0 + float(np.max(np.abs(w), initial=0.0)))
        if norm_exceeds(miss, bound) and not _norm_within(miss, bound):
            raise ValueError("eigendecomposition failed to reconstruct input")
    return w, V


def spectral_powers(w: np.ndarray, V: np.ndarray, powers) -> list[np.ndarray]:
    """V . diag(w^p) . V* for each p, after the PSD and singularity guards."""
    cut = DEFAULT_TOL * max(float(np.max(w, initial=0.0)), 1.0)
    if np.any(w < -cut):
        raise NotPSD("negative eigenvalue beyond tolerance")
    w = np.clip(w, 0.0, None)
    if min(powers) < 0 and np.any(w <= cut):
        raise Singular("negative power of a singular matrix")
    return [(V * np.power(w, p)) @ V.conj().T for p in powers]


def hermitian_powers(H: np.ndarray, powers) -> list[np.ndarray]:
    """H^p for each p in powers, Hermitian PSD H, from one spectrum."""
    return spectral_powers(*hermitian_spectrum(H), powers)


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
    rank = int(np.sum(s > DEFAULT_TOL * max(s[0], scale, 1e-300)))
    return Vh[rank:].conj().T


def orthonormal_columns(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space."""
    A = as_complex_matrix(A)
    if A.size == 0:
        return np.zeros((A.shape[0], 0), dtype=np.complex128)
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(s > DEFAULT_TOL * max(s[0], 1e-300)))
    return U[:, :rank]


def _span_residual(inner: np.ndarray, Q: np.ndarray) -> float:
    """Worst relative distance from a nonzero column of inner to span(Q), Q orthonormal."""
    norms = np.linalg.norm(inner, axis=0)
    live = norms > 0.0
    V = inner[:, live]
    return float(np.max(np.linalg.norm(V - Q @ (Q.conj().T @ V), axis=0)
                        / norms[live], initial=0.0))


def containment_residual(inner: np.ndarray, outer: np.ndarray) -> float:
    """Worst relative distance from a column of `inner` to span(outer)."""
    return _span_residual(inner, orthonormal_columns(outer))


def spans_equal(QA: np.ndarray, QB: np.ndarray) -> tuple[bool, float]:
    """Same span at the fixed cutoff, and the mutual containment residual,
    for two bases that are already orthonormal."""
    res = max(_span_residual(QA, QB), _span_residual(QB, QA))
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
    the stacked Sylvester system.  This is the generic solver for arbitrary
    generator sets (bicommutants of generated subalgebras, and the tests'
    reference); commutants of matrix-unit representations are read off
    their isotypic frames in wstar.algebras instead.
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


def kron_sandwich(project, left, right, section: np.ndarray) -> np.ndarray:
    """project @ kron(left, right) @ section, with no Kronecker product formed.

    left and right are matrices, an int n for the n x n identity, or
    stacks of matrices: a stack gives the stack of sandwiches, and two
    stacks pair up entry by entry.  project None is the identity.  The
    factors act on the two axes of section's rows reshaped to a matrix.
    """
    n_l = left if isinstance(left, int) else left.shape[-1]
    n_r = right if isinstance(right, int) else right.shape[-1]
    cols = section.shape[1]
    X = section.reshape(n_l, n_r * cols)
    if not isinstance(left, int):
        X = left @ X
    X = X.reshape(X.shape[:-1] + (n_r, cols))
    if not isinstance(right, int):
        X = right[..., None, :, :] @ X
    X = X.reshape(X.shape[:-3] + (X.shape[-3] * X.shape[-2], cols))
    return X if project is None else project @ X


@dataclass(frozen=True)
class GramQuotient:
    """Hilbert-space quotient of a PSD pre-inner product.

    section columns are orthonormal for the G-inner product; project sends
    an ambient vector to its quotient coordinates, and project @ section is
    the identity on the quotient.
    """

    section: np.ndarray   # ambient x rank
    project: np.ndarray   # rank x ambient
    rank: int


def gram_quotient(G: np.ndarray, scale: float = 0.0) -> GramQuotient:
    """Quotient of the pre-inner product <v, w> = w* G v by its null space.

    Eigenvalues up to DEFAULT_TOL relative to max(top eigenvalue, scale) are
    treated as null directions; scale guards against a G that is entirely
    rounding noise being kept as a genuine line.
    """
    G = as_complex_matrix(G)
    Gs = (G + G.conj().T) / 2.0
    w, V = np.linalg.eigh(Gs) if Gs.size else (np.zeros(0), np.zeros((0, 0)))
    if norm_exceeds(G - G.conj().T,
                    DEFAULT_TOL * (1.0 + float(np.max(np.abs(w), initial=0.0)))):
        raise NotPSD("pre-inner product matrix is not Hermitian")
    top = float(np.max(w, initial=0.0))
    if np.any(w < -DEFAULT_TOL * max(top, 1.0)):
        raise NotPSD("pre-inner product has a negative direction")
    cut = DEFAULT_TOL * max(top, scale)
    keep = w > cut if cut > 0.0 else np.zeros(len(w), dtype=bool)
    wk = w[keep]
    Vk = V[:, keep]
    section = Vk * np.power(wk, -0.5)
    project = (Vk * np.power(wk, 0.5)).conj().T
    return GramQuotient(section, project, int(np.sum(keep)))

