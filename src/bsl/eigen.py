"""Eigensolver for the assembled tridiagonal pencils.

The generalised problem A u = lambda B u is symmetrised to a single
tridiagonal matrix C = B^(-1/2) A B^(-1/2).  A collapsing endpoint
carries vanishing weight, so its node is folded into the neighbour
before symmetrising and eigenvectors are expanded back afterwards
(constant extension, matching the zero-flux end): the condensed
stiffness is the path Laplacian of the face weights on the kept nodes.
Eigenpairs of C come from LAPACK's tridiagonal bisection and inverse
iteration (?stebz and ?stein through scipy.linalg.eigh_tridiagonal).

Every returned pair is certified by its normwise backward error

    eta = ||C v - lambda v|| / ((||C|| + |lambda|) ||v||) <= 64 eps,

with ||C|| the largest absolute row sum, which bounds the 2-norm.  A
fixed relative residual cannot serve as the certificate on fine grids:
||C|| grows like n^2, and already storing an exact eigenvector in
double precision leaves a residual near eps ||C||.  Where the pencil
residual ||A u - lambda B u|| <= 1e-9 ||B u|| is attainable (grids up to
1024) it is required as well.  The dense cross-check lives in the tests.

This module solves one grid; the Richardson step over a grid pair, the
only builder of a BasicSpectrum, is lab._richardson.
"""

from dataclasses import dataclass

import numpy as np

from .sturm import DiscreteOperator, pencil_residual

_BACKWARD_C = 64.0          # backward-error bound in units of eps; tests
                            # shrink it to force the failure path
_RESIDUAL_REL = 1e-9
_RESIDUAL_MAX_N = 1024      # finest grid on which _RESIDUAL_REL is attainable


class ConvergenceFailure(RuntimeError):
    """An eigenpair could not be computed to its certificate."""


class TooManyModes(ValueError):
    """More modes requested than the condensed grid holds."""


@dataclass(frozen=True, eq=False)
class BasicSpectrum:
    """Nonzero modes, ascending: mode j has eigenvalue lambdas[j] and error
    estimate errors[j].

    Modes are simple: every condensed pencil is an unreduced Jacobi
    matrix, whose eigenvalues are distinct.  Both arrays are read-only.
    """
    lambdas: np.ndarray
    errors: np.ndarray
    n: int
    side: str
    fingerprint: str

    def __post_init__(self):
        for name in ("lambdas", "errors"):
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if self.lambdas.shape != self.errors.shape or self.lambdas.ndim != 1:
            raise ValueError("lambdas and errors must be 1-D arrays of one length")


def _span(op: DiscreteOperator):
    """First and last node kept by the condensation."""
    lo = 1 if op.endpoints[0] == "collapsing" else 0
    hi = op.n - 1 if op.endpoints[1] == "collapsing" else op.n
    return lo, hi


def condensed(op: DiscreteOperator):
    """Fold collapsing-end nodes into their neighbours.

    Returns (d, e, b): the condensed stiffness diagonal, off-diagonal and
    mass.  The stiffness is the path Laplacian of the faces between the
    kept nodes (a folded node's face carries no flux under constant
    extension) and the end mass moves inward, so A_c @ 1 still vanishes
    and B-norms of expanded vectors match the full grid exactly.
    """
    lo, hi = _span(op)
    if hi - lo + 1 < 3:
        raise ValueError("grid too small to condense")
    f = op.faces[lo:hi]
    # each kept node sums its kept faces; the end nodes have one each
    d = (np.r_[f, 0.0] + np.r_[0.0, f]) / op.dt ** 2
    e = -f / op.dt ** 2
    b = op.mass[lo:hi + 1].copy()
    b[0] += np.sum(op.mass[:lo])
    b[-1] += np.sum(op.mass[hi + 1:])
    if np.any(b <= 0.0):
        raise ValueError("condensed mass must be positive")
    return d, e, b


def _expand(op: DiscreteOperator, v: np.ndarray) -> np.ndarray:
    """Undo the condensation by constant extension at folded ends."""
    lo, hi = _span(op)
    return np.pad(v, (lo, op.n - hi), mode="edge")


def _tridiag_matvec(d: np.ndarray, e: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = d * v
    out[:-1] += e * v[1:]
    out[1:] += e * v[:-1]
    return out


def eigenpairs(op: DiscreteOperator, k: int):
    """First k nonzero modes: (values, vectors) with vectors on the full grid.

    The condensed matrix is an unreduced Jacobi matrix, so the values are
    distinct and LAPACK's vectors orthonormal: expanded, they are
    B-orthonormal with no Gram-Schmidt pass.  Each is B-normalised once
    and signed positive at its largest-magnitude node.  Raises
    TooManyModes if the grid cannot hold k nonzero modes, and
    ConvergenceFailure if a pair misses its certificate: backward error
    above 64 eps, or, on grids up to 1024, pencil residual
    ||A u - lambda B u|| above 1e-9 ||B u||.
    """
    from scipy.linalg import eigh_tridiagonal

    if k < 1:
        raise ValueError("need at least one mode")
    d, e, b = condensed(op)
    if k + 1 >= d.size:
        raise TooManyModes(
            "%d modes requested; the grid n=%d (side %s) holds at most %d"
            % (k, op.n, op.side, d.size - 2))
    sb = np.sqrt(b)
    cd = d / b
    ce = e / (sb[:-1] * sb[1:])
    where = "(n=%d, side %s)" % (op.n, op.side)
    try:
        # index 0 is the constant kernel mode; start at the first nonzero one
        lams, vs = eigh_tridiagonal(cd, ce, select="i", select_range=(1, k))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(
            "LAPACK tridiagonal solve failed for modes 1-%d %s: %s" % (k, where, exc))
    # largest absolute row sum of C
    cnorm = float(np.max(_tridiag_matvec(np.abs(cd), np.abs(ce), np.ones(cd.size))))
    eta_max = _BACKWARD_C * np.finfo(float).eps
    lo, hi = _span(op)
    vecs = np.empty((op.n + 1, k))
    for j in range(k):
        u = _expand(op, vs[:, j] / sb)
        u /= np.sqrt(u @ (op.mass * u))
        if u[np.argmax(np.abs(u))] < 0.0:
            u = -u
        vecs[:, j] = u
        v = sb * u[lo:hi + 1]
        r = _tridiag_matvec(cd, ce, v) - lams[j] * v
        eta = np.linalg.norm(r) / ((cnorm + abs(lams[j])) * np.linalg.norm(v))
        if eta > eta_max:
            raise ConvergenceFailure(
                "backward error %.3e exceeds %.3e (%g eps) at mode %d %s"
                % (eta, eta_max, _BACKWARD_C, j + 1, where))
        if op.n <= _RESIDUAL_MAX_N:
            rel = pencil_residual(op, lams[j], u)
            if rel > _RESIDUAL_REL:
                raise ConvergenceFailure(
                    "relative pencil residual %.3e exceeds %.0e at mode %d %s"
                    % (rel, _RESIDUAL_REL, j + 1, where))
    return lams, vecs
