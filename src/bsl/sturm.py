"""Finite-volume discretisation of the reduced weighted operator.

The quotient problem -(w u')' = lambda w u with zero-flux ends becomes a
tridiagonal generalised pencil on the uniform profile grid.  The
stiffness is its face weights w_{i+1/2}, node averages; at an interior node

    (A u)_i = -[w_{i+1/2}(u_{i+1} - u_i) - w_{i-1/2}(u_i - u_{i-1})] / dt^2

with the flux dropped beyond the two boundary faces: A = G^T diag(faces)
G / dt^2, G the difference matrix.  The lumped mass is the node weight,
halved in the two end cells.  Applied in difference form the stiffness
annihilates constants exactly, floating point included, which keeps the
zero mode clean.
"""

from dataclasses import dataclass

import numpy as np


class NonpositiveWeight(ValueError):
    """Profile weight is not a positive finite number on interior nodes."""


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    n: int
    dt: float
    mass: np.ndarray     # lumped mass diagonal (node weights, ends halved)
    faces: np.ndarray    # face weights, n entries: the whole stiffness
    endpoints: tuple
    side: str
    fingerprint: str


def assemble(profile) -> DiscreteOperator:
    """Build the pencil (A, B) from an orbit-volume profile."""
    w = np.asarray(profile.w, dtype=float)
    n = profile.n
    if w.shape != (n + 1,):
        raise ValueError("profile arrays are inconsistent with its grid size")
    inner = w[1:-1]
    bad = ~((inner > 0.0) & (inner < np.inf))      # NaN counts as bad
    if np.any(bad):
        i = int(np.argmax(bad)) + 1
        raise NonpositiveWeight(
            f"weight must be positive and finite on interior nodes: "
            f"side {profile.side}, n={n}, node {i} has w={float(w[i])!r}")
    faces = 0.5 * (w[:-1] + w[1:])
    mass = w.copy()
    mass[0] *= 0.5
    mass[-1] *= 0.5
    for a in (mass, faces):
        a.flags.writeable = False
    return DiscreteOperator(n=n, dt=profile.dt, mass=mass, faces=faces,
                            endpoints=tuple(profile.endpoints),
                            side=profile.side, fingerprint=profile.fingerprint)


def apply_stiffness(op: DiscreteOperator, u) -> np.ndarray:
    """A @ u in flux-difference form; exact on constant vectors."""
    u = np.asarray(u, dtype=float)
    flux = op.faces * np.diff(u)
    out = np.empty_like(u)
    out[0] = -flux[0]
    out[-1] = flux[-1]
    out[1:-1] = flux[:-1] - flux[1:]
    return out / op.dt ** 2


def pencil_residual(op: DiscreteOperator, lam, u) -> float:
    """Relative pencil residual ||A u - lam B u|| / ||B u||."""
    bu = op.mass * u
    return float(np.linalg.norm(apply_stiffness(op, u) - lam * bu)
                 / np.linalg.norm(bu))


def mass_quadrature(op: DiscreteOperator) -> np.ndarray:
    """Quadrature weights dt * B for integrals against the profile measure."""
    return op.dt * op.mass
