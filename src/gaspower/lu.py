"""Factorizations of the per-level Jacobian blocks, which solve with J and
J^T for one right-hand side or a column of them: condensed onto the network
unknowns for a step block (StepCondensation), whole for the steady block,
whose pipe block is singular at stagnation without the time terms.  A
singular factorization raises RuntimeError, as SuperLU does."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgbsv, dgbtrs

# SuperLU panel size: one column per panel factors the steady block's J^T
# (about 4 entries per column) and the small network block S^T faster.
LU_PANEL_SIZE = 1

# lower and upper bandwidth of the pipe block in StepCondensation's order
_BAND = 2


def whole_factors(jac, splu) -> SimpleNamespace:
    """Factors of the steady block `jac` (CSR): the caller's `splu` of J^T."""
    lu = splu(jac.T, panel_size=LU_PANEL_SIZE)
    return SimpleNamespace(solve=lambda b: lu.solve(b, trans="T"),
                           solve_transposed=lu.solve)


class CondensedFactors:
    """Solves with a step block J = [A B; C D] from the band LU of the
    pipe block A, X = A^-1 (unit vectors at every pipe's from- and at its
    to-coupling row), whose rows of a pipe give -A^-1 B at the pipe's two
    nodes, and SuperLU's factors of S^T (see StepCondensation)."""

    def __init__(self, cond: "StepCondensation", band, piv, x, lu):
        self.cond, self.band, self.piv, self.x, self.lu = \
            cond, band, piv, x, lu

    def _band_solve(self, rhs, trans):
        return dgbtrs(self.band, _BAND, _BAND, rhs, self.piv, trans=trans,
                      overwrite_b=1)[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """J^-1 b."""
        k, n = self.cond, self.cond.size
        b2 = b.reshape(len(b), -1)
        z = self._band_solve(b2[k.row_from], 0)             # A^-1 b_1
        y2 = self.lu.solve(b2[n:] - k.node_sums(k.c * z[k.q_ends]),
                           trans="T")
        # y_1 = z - A^-1 B y_2 = z + X (y_2 at each pipe's two nodes)
        g = y2[k.nodes].reshape(-1, 2, b2.shape[1])
        z += np.einsum("ij,ijk->ik", self.x, np.repeat(g, k.sizes, axis=0))
        # back to the unknowns' order: all rho, then all q
        z = z.reshape(n // 2, 2, -1).transpose(1, 0, 2).reshape(n, -1)
        return np.concatenate([z, y2]).reshape(b.shape)

    def solve_transposed(self, c: np.ndarray) -> np.ndarray:
        """J^-T c."""
        k, n = self.cond, self.cond.size
        c2 = c.reshape(len(c), -1)
        rhs = c2[:n].reshape(2, n // 2, -1).transpose(1, 0, 2).reshape(
            n, -1)                                          # c_1, band order
        v = self._band_solve(rhs.copy(), 1)                 # A^-T c_1
        w2 = self.lu.solve(c2[n:] + k.node_sums(v[k.row_ends]))
        # w_1 = A^-T (c_1 - C^T w_2), C^T w_2 being c w_2 at the end flows
        rhs[k.q_ends] -= k.c * w2[k.nodes]
        w1 = self._band_solve(rhs, 1)[k.row_pos]
        return np.concatenate([w1, w2]).reshape(c.shape)


class StepCondensation:
    """Condensed factorization of the step blocks J = [A B; C D].

    A is the pipe block: the first n = 2 n_points rows (box and coupling
    rows) and columns (pipe densities and flows).  Its columns taken as
    (rho_p, q_p) per grid point and its rows, per pipe, as from-coupling,
    (mass, momentum) per interval and to-coupling, A is block diagonal by
    pipe with bandwidth 2; LAPACK's dgbtrf factors it.  B (-1 at each
    coupling row's node density) and C (the balance rows' pipe-end flows)
    are constant, so S = D - C A^-1 B takes one two-column band solve,
    with unit vectors at every pipe's from- and to-coupling rows, and four
    products per pipe, scattered with D's entries into S's fixed pattern.
    Set up from J's CSR pattern, each box interval's left grid point, each
    pipe's grid points, and per pipe end (from and to of each pipe in
    turn) the node's column and the entry of C there.
    """

    def __init__(self, indices, indptr, left, points, nodes, c, names):
        self.sizes, self.names = 2 * points, names   # band rows per pipe
        stops = np.cumsum(self.sizes)
        n = self.size = int(stops[-1])
        m = self.net = len(indptr) - 1 - n
        # band rows of the coupling rows; the to-end's is its flow's column
        self.row_ends = np.repeat(stops, 2) - 1
        self.row_ends[0::2] -= self.sizes - 1
        self.q_ends = self.row_ends.copy()
        self.q_ends[0::2] += 1
        self.row_pos = np.concatenate([2 * left + 1, 2 * left + 2,
                                       self.row_ends]).astype(np.int32)
        self.row_from = np.empty_like(self.row_pos)
        self.row_from[self.row_pos] = np.arange(n)
        self.nodes, self.c = nodes - n, c[:, None]
        # band column 2c of density column c, 2c - n + 1 of flow column c;
        # A[i, j] to ab[j, 2 _BAND + i - j] of a flat (n, 7) ab, B to a spare
        cols = indices[:indptr[n]].astype(np.intp)
        self._a_band = 3 * _BAND * (2 * cols - (n - 1) * (cols >= n // 2)) \
            + 2 * _BAND + np.repeat(self.row_pos, np.diff(indptr[:n + 1]))
        self._a_band[cols >= n] = (3 * _BAND + 1) * n
        # S's CSR pattern: D's entries, then the Schur products, which the
        # pipes at one node (or between one pair of nodes) add into a slot
        tail = indices[indptr[n]:] - n
        inside = np.flatnonzero(tail >= 0)
        self._d_take = indptr[n] + inside
        keys = np.concatenate([
            np.repeat(m * np.arange(m), np.diff(indptr[n:]))[inside]
            + tail[inside],
            (m * self.nodes[:, None]
             + np.repeat(self.nodes.reshape(-1, 2), 2, axis=0)).ravel()])
        unique = keys[np.argsort(keys, kind="stable")]
        unique = unique[np.concatenate([[True], unique[1:] != unique[:-1]])]
        self._slots = np.searchsorted(unique, keys)
        self._schur = sparse.csc_matrix(
            (np.zeros(len(unique)), (unique % m).astype(np.int32),
             np.searchsorted(unique, m * np.arange(m + 1)).astype(np.int32)),
            shape=(m, m))

    def node_sums(self, per_end: np.ndarray) -> np.ndarray:
        """Sums of per_end's rows (one per pipe end) at each end's node."""
        k = per_end.shape[1]
        at = self.nodes if k == 1 else \
            (k * self.nodes[:, None] + np.arange(k)).ravel()
        return np.bincount(at, per_end.ravel(), self.net * k).reshape(-1, k)

    def factors(self, jac, splu) -> CondensedFactors:
        """Factors of `jac` (CSR, set-up pattern); `splu` factors S^T."""
        n = self.size
        ab = np.zeros((3 * _BAND + 1) * n + 1)
        ab[self._a_band] = jac.data[:len(self._a_band)]
        x = np.zeros((2, n))
        x[[0, 1] * len(self.sizes), self.row_ends] = 1.0
        band, piv, x, info = dgbsv(_BAND, _BAND, ab[:-1].reshape(n, -1).T,
                                   x.T, overwrite_ab=1, overwrite_b=1)
        if info > 0:
            pipe = np.searchsorted(np.cumsum(self.sizes), info - 1, "right")
            raise RuntimeError(f"zero pivot in the pipe block of pipe "
                               f"{self.names[pipe]}")
        schur = self.c * x[self.q_ends]             # -C A^-1 B
        self._schur.data = np.bincount(
            self._slots, np.concatenate([jac.data[self._d_take],
                                         schur.ravel()]),
            minlength=len(self._schur.indices))
        return CondensedFactors(self, band, piv, x,
                                splu(self._schur, panel_size=LU_PANEL_SIZE))
