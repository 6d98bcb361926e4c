"""Magnetic cotangent bundles T*G in left trivialization.

The phase space is G x g* with the magnetic symplectic form: the canonical
form plus a left-invariant two-form built from a skew cocycle matrix theta
(its value at the identity is Sigma(xi, eta) = <theta xi, eta>).  All tangent
data is body-frame: a tangent vector is a pair (xi, nu) with xi the
left-trivialized base velocity and nu the momentum velocity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .exact import QuadraticField, integer_rows
from .groups import GroupModel

__all__ = [
    "CocycleTheta",
    "MagneticCotangent",
    "PhasePoint",
    "PhaseTangent",
]

# Sign of the canonical part of the form.  Fixed by requiring that the
# momentum map with theta = 0 satisfies the momentum condition with positive
# sign; the verification suite pins the value, and flipping it must make the
# momentum-condition check fail loudly.
_CANON_SIGN = 1.0


def _dot(a, b) -> np.ndarray:
    """Pairing over the last axis, row by row of stacked operands."""
    return (a * b).sum(axis=-1)


class CocycleTheta:
    """Skew matrix theta: g -> g* with exact entries, defining Sigma.

    For the Heisenberg family theta is generated by a covector sigma on R^2
    and assembled as [[0, sigma], [-sigma^T, 0]].  The entries are parsed
    once into `rows`, their `exact.IntegerRows`; every exact computation on
    theta reads those integers, and `matrix` keeps the parsed scalars for
    printing.
    """

    __slots__ = ("field", "matrix", "sigma", "rows", "_float")

    def __init__(self, field: QuadraticField, rows, sigma=None):
        self.field = field
        matrix = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise InputError("theta matrix must be square")
        self.rows = integer_rows(matrix)
        ints = self.rows.ints
        for i in range(n):
            for j in range(i, n):
                # the components of entry (i, j) are ints[i][j::n]
                if ints[i][j::n] != [-x for x in ints[j][i::n]]:
                    raise InputError(f"theta is not skew at ({i}, {j})")
        self.matrix = matrix
        self.sigma = None if sigma is None else tuple(field.coerce(x) for x in sigma)
        self._float = np.array([[float(x) for x in row] for row in matrix])

    @classmethod
    def from_sigma(cls, field: QuadraticField, sigma) -> "CocycleTheta":
        s1, s2 = (field.coerce(x) for x in sigma)
        zero = field.zero
        rows = ((zero, s1, s2), (-s1, zero, zero), (-s2, zero, zero))
        return cls(field, rows, sigma=(s1, s2))

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def float_matrix(self) -> np.ndarray:
        return self._float.copy()

    def columns(self):
        """Columns theta(e_k) as exact vectors: the images of basis directions."""
        return [tuple(self.matrix[i][k] for i in range(self.dim)) for k in range(self.dim)]

    def is_cocycle_for(self, model: GroupModel) -> bool:
        """Exact cocycle identity <theta[a,b],c> + cyclic = 0 on basis triples.

        Only nonzero structure constants contribute: c^k_xy enters the triples
        (x, y, z), (z, x, y) and (y, z, x) with theta[z][k] c^k_xy for every z,
        so an abelian model needs no arithmetic at all.  A model's are its
        bracket pairs, c = 1 at (a, b, k) and -1 at (b, a, k); the sums run
        on the integer components of theta's entries.
        """
        if model.dim != self.dim:
            raise InputError("theta dimension does not match the group")
        n = self.dim
        totals = {}
        for a, b, k in model.pairs:
            for x, y, c in ((a, b, 1), (b, a, -1)):
                for z, row in enumerate(self.rows.ints):
                    for triple in ((x, y, z), (z, x, y), (y, z, x)):
                        totals[triple] = [t + c * e for t, e in zip(totals.get(triple, (0, 0)), row[k::n])]
        return not any(any(t) for t in totals.values())


@dataclass(frozen=True)
class PhasePoint:
    """Point (g, mu) of T*G in left trivialization."""

    g: np.ndarray
    mu: np.ndarray


@dataclass(frozen=True)
class PhaseTangent:
    """Body-frame tangent (xi, nu) at a phase point."""

    xi: np.ndarray
    nu: np.ndarray


class MagneticCotangent:
    """T*G with the magnetic symplectic form determined by theta."""

    def __init__(self, group: GroupModel, theta: CocycleTheta):
        if theta.dim != group.dim:
            raise InputError("theta dimension does not match the group")
        if not theta.is_cocycle_for(group):
            raise InputError("theta violates the cocycle identity for this group")
        self.group = group
        self.cover = group.cover()
        self.theta = theta
        self.n = group.dim
        # Sigma(xi, eta) = <theta xi, eta> = xi^T theta^T eta
        self.sigma_matrix = theta.float_matrix().T
        self._chu_base = self.chu_map(self.base_point())
        self._chu_base.flags.writeable = False  # shared by every sigma_J

    # -- small validators --------------------------------------------------

    def _pair(self, a, b, what: str):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if a.shape != b.shape or a.shape[-1:] != (self.n,):
            raise InputError(f"{what} components must have equal shape (..., {self.n}), got {a.shape} and {b.shape}")
        return a, b

    def point(self, g, mu) -> PhasePoint:
        """A phase point, or stacked ones when g and mu hold rows."""
        return PhasePoint(*self._pair(g, mu, "phase point"))

    def tangent(self, xi, nu) -> PhaseTangent:
        """A phase tangent, or stacked ones when xi and nu hold rows."""
        return PhaseTangent(*self._pair(xi, nu, "phase tangent"))

    def base_point(self) -> PhasePoint:
        return PhasePoint(self.group.identity(), np.zeros(self.n))

    # -- the form ----------------------------------------------------------
    # Points and tangents may stack rows along broadcasting leading axes; each
    # pairing sums elementwise products over the last axis, so every row gets
    # what a call on it alone gets.  The sign is read at call time.

    def bracket_form(self, mu) -> np.ndarray:
        """C(mu) with C_ab = <mu, [e_a, e_b]>."""
        return _dot(self.group.structure, np.asarray(mu, dtype=float)[..., None, None, :])

    def omega_matrix(self, z: PhasePoint) -> np.ndarray:
        """2n x 2n matrix of the form in the stacked (xi, nu) basis."""
        n, s = self.n, _CANON_SIGN
        top = s * self.bracket_form(z.mu) - self.sigma_matrix
        out = np.zeros(top.shape[:-2] + (2 * n, 2 * n))
        out[..., :n, :n] = top
        out[..., :n, n:] = s * np.eye(n)
        out[..., n:, :n] = -s * np.eye(n)
        return out

    def omega(self, z: PhasePoint, v1: PhaseTangent, v2: PhaseTangent):
        """The form on a pair of tangents: a float for one point, one value
        per row for stacked ones."""
        s = _CANON_SIGN
        xi1, nu1, xi2, nu2 = v1.xi, v1.nu, v2.xi, v2.nu
        canon = _dot(nu2, xi1) - _dot(nu1, xi2) + _dot(z.mu, self.group.bracket(xi1, xi2))
        out = s * canon - _dot(xi1, _dot(self.sigma_matrix, xi2[..., None, :]))
        return float(out) if out.ndim == 0 else out

    # -- generators and the Chu map ----------------------------------------

    def generator(self, xi, z: PhasePoint) -> PhaseTangent:
        """Infinitesimal generator of lifted left translation: (Ad_{g^-1} xi, 0)."""
        adj = self.group.adjoint(self.group.inverse(z.g))
        body = _dot(adj, np.asarray(xi, dtype=float)[..., None, :])
        return PhaseTangent(body, np.zeros(body.shape))

    def chu_map(self, z: PhasePoint) -> np.ndarray:
        """Psi(z)_ij = omega(z)(e_i-generator, e_j-generator)."""
        adj = self.group.adjoint(self.group.inverse(z.g))
        top = _CANON_SIGN * self.bracket_form(z.mu) - self.sigma_matrix
        return np.swapaxes(adj, -1, -2) @ top @ adj

    def chu_at_base(self) -> np.ndarray:
        """The Chu map at the base point, computed once per model (read-only).
        It is -Sigma whatever the canonical sign, since C(0) = 0."""
        return self._chu_base
