"""Factorizations of the per-level Jacobian blocks, which solve with J and
J^T for one right-hand side or a column of them: condensed onto the network
unknowns for a step block (StepCondensation), whole for the steady block,
whose pipe block is singular at stagnation without the time terms.  A
singular block raises RuntimeError, at the solve for a step's pipe block."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgtsv

# SuperLU panel size: one column per panel factors the steady block's J^T
# (about 4 entries per column) and the small network block S^T faster.
LU_PANEL_SIZE = 1


def whole_factors(jac, splu) -> SimpleNamespace:
    """Factors of the steady block `jac` (CSR): the caller's `splu` of J^T."""
    lu = splu(jac.T, panel_size=LU_PANEL_SIZE)
    return SimpleNamespace(solve=lambda b: lu.solve(b, trans="T"),
                           solve_transposed=lu.solve)


class CondensedFactors:
    """Solves with a step block J = [A B; C D]: each is one LAPACK dgtsv on
    G = T A (see StepCondensation; G^T for J^T) with two unit vectors more,
    at each pipe's from- and to-coupling row (end flows for G^T), whose
    rows give -A^-1 B (-A^-T C^T) and S, which the first solve factors."""

    def __init__(self, cond: "StepCondensation", diagonals, st, d_vals, splu):
        self.cond, self.diagonals, (self.s, self.t) = cond, diagonals, st
        self.d_vals, self.splu, self.lu = d_vals, splu, None

    def _eliminate(self, b: np.ndarray, transposed: bool):
        """G^-1 b (G^-T b), unit vectors at the ends put in b's last two."""
        k = self.cond
        b[k.q_ends if transposed else k.row_ends, k.unit_cols] = 1
        x, info = dgtsv(*self.diagonals[::-1 if transposed else 1], b,
                        overwrite_b=1)[3:]      # G^T: dl and du swapped
        if info > 0:
            pipe = k.names[np.searchsorted(k.stops, info - 1, "right")]
            raise RuntimeError(f"zero pivot in the pipe block of pipe {pipe}")
        unit = x[:, -2:]
        if self.lu is None:     # S^T: D, less C A^-1 B at each pipe's ends
            at = unit[k.row_ends].reshape(-1, 2, 2).transpose(0, 2, 1) \
                if transposed else unit[k.q_ends]     # A^-1[q_e, row_f]
            k.schur.data = np.bincount(k.schur_slots, np.concatenate(
                [self.d_vals, (k.c * at.reshape(-1, 2)).ravel()]),
                minlength=len(k.schur.indices))
            self.lu = self.splu(k.schur, panel_size=LU_PANEL_SIZE)
        return x[:, :-2], unit

    def solve(self, b: np.ndarray) -> np.ndarray:
        """J^-1 b."""
        k, n, m = self.cond, self.cond.size, len(self.cond.box)
        b2 = b.reshape(len(b), -1)
        rhs = np.zeros((n, b2.shape[1] + 2), order="F")    # T b_1, band order
        rhs[k.box, :-2] = b2[m:2 * m] - self.s * b2[:m]
        rhs[k.box + 1, :-2] = b2[m:2 * m] - self.t * b2[:m]
        rhs[k.row_ends, :-2] = b2[2 * m:n]
        z, x = self._eliminate(rhs, False)                  # A^-1 b_1, A^-1 E
        y2 = self.lu.solve(b2[n:] - k.node_sums(k.c * z[k.q_ends]),
                           trans="T")
        # y_1 = z - A^-1 B y_2 = z + X (y_2 at the nodes); all rho, all q
        g = np.repeat(y2[k.pairs], k.sizes, 0)
        z += x[:, :1] * g[:, 0] + x[:, 1:] * g[:, 1]
        return np.concatenate([z[0::2], z[1::2], y2]).reshape(b.shape)

    def solve_transposed(self, c: np.ndarray) -> np.ndarray:
        """J^-T c = (T^T v, w_2), v solving G^T v = c_1 - C^T w_2."""
        k, n = self.cond, self.cond.size
        c2 = c.reshape(len(c), -1)
        rhs = np.zeros((n, c2.shape[1] + 2), order="F")    # c_1, band order
        rhs[0::2, :-2], rhs[1::2, :-2] = c2[:n // 2], c2[n // 2:n]
        v, y = self._eliminate(rhs, True)                   # G^-T c_1, G^-T E
        w2 = self.lu.solve(c2[n:] + k.node_sums(v[k.row_ends]))
        g = np.repeat(k.c.reshape(-1, 2, 1) * w2[k.pairs], k.sizes, 0)
        v -= y[:, :1] * g[:, 0] + y[:, 1:] * g[:, 1]   # g: C^T w_2 per row
        mass, mom = v[k.box], v[k.box + 1]
        return np.concatenate([-self.s * mass - self.t * mom, mass + mom,
                               v[k.row_ends], w2]).reshape(c.shape)


class StepCondensation:
    """Condensed factorization of the step blocks J = [A B; C D].

    A, the pipe block (the first n = 2 n_points rows and columns), is block
    diagonal by pipe with bandwidth 2 in band order: columns (rho_p, q_p)
    per grid point, rows per pipe from-coupling, (mass m, momentum M) per
    interval, to-coupling.  T puts M - s m, s = M_qR / m_qR, in each mass
    row and M - t m, t = M_rhoL / m_rhoL, in each momentum row: G = T A is
    tridiagonal, T invertible while s != t, as in subsonic flow (t < 0 < s).
    B (-1 at each coupling row's node density) and C (balance entries `c`
    at the end flows) are constant; S = D - C A^-1 B takes A^-1 at the pipe
    ends.  `factors` reads J's values in the assembler's entry order;
    `rows` and `cols` give each entry's row and column, whence D and S.
    """

    def __init__(self, rows, cols, left, points, nodes, c, names):
        self.sizes, self.names = 2 * points, names   # band rows per pipe
        stops = self.stops = np.cumsum(self.sizes)
        n = self.size = int(stops[-1])
        m = self.net = int(rows.max()) + 1 - n   # every row holds an entry
        self.box = 2 * left + 1   # mass rows
        # band rows of the coupling rows; the to-end's is its flow's column
        self.row_ends = np.stack([stops - self.sizes, stops - 1], 1).ravel()
        self.q_ends = self.row_ends + np.tile([1, 0], len(stops))
        # columns of _eliminate's unit vectors, at the row_ends (q_ends)
        self.unit_cols = np.tile([-2, -1], len(stops))
        # places in [dl | d | du] of M - s m at rho_L, rho_R, q_L and of
        # M - t m at rho_R, q_L, q_R (T cancels the other two), and of the
        # coupling entries
        b = self.box
        self._mass_at = np.stack([b - 1, b + 2 * n - 1, b + n - 1])
        self._mom_at = np.stack([b + n, b, b + 2 * n])
        self._ends_at = self.row_ends + np.tile([n - 1, -1], len(stops))
        self.nodes, self.c = nodes - n, c[:, None]
        self.pairs = self.nodes.reshape(-1, 2)   # per pipe: (from, to)
        # S's CSR pattern: D's entries, then the Schur products, which the
        # pipes at one node (or between one pair of nodes) add into a slot
        self._d_take = np.flatnonzero((rows >= n) & (cols >= n))
        keys = np.concatenate([
            m * (rows[self._d_take] - n) + cols[self._d_take] - n,
            (m * self.nodes[:, None] + np.repeat(self.pairs, 2, 0)).ravel()])
        unique = keys[np.argsort(keys, kind="stable")]
        unique = unique[np.concatenate([[True], unique[1:] != unique[:-1]])]
        self.schur_slots = np.searchsorted(unique, keys)
        self.schur = sparse.csc_matrix(
            (np.zeros(len(unique)), (unique % m).astype(np.int32),
             np.searchsorted(unique, m * np.arange(m + 1)).astype(np.int32)),
            shape=(m, m))

    def node_sums(self, per_end: np.ndarray) -> np.ndarray:
        """Sums of per_end's rows (one per pipe end) at each end's node."""
        k = per_end.shape[1]
        at = (k * self.nodes[:, None] + np.arange(k)).ravel()
        return np.bincount(at, per_end.ravel(), self.net * k).reshape(-1, k)

    def factors(self, values, splu) -> CondensedFactors:
        """Factors of the step Jacobian `values`; `splu` factors S^T."""
        n, k, ends = self.size, 8 * len(self.box), len(self.row_ends)
        m, mo = values[:k].reshape(2, 4, -1)   # rho_L, rho_R, q_L, q_R
        s, t = mo[3] / m[3], mo[0] / m[0]
        tri = np.zeros(3 * n - 2)
        tri[self._mass_at] = mo[:3] - s * m[:3]
        tri[self._mom_at] = mo[1:] - t * m[1:]
        tri[self._ends_at] = values[k:k + ends]
        return CondensedFactors(
            self, (tri[:n - 1], tri[n - 1:2 * n - 1], tri[2 * n - 1:]),
            (s[:, None], t[:, None]), values[self._d_take], splu)
