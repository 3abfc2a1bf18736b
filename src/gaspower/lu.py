"""Factorizations of the per-level Jacobian blocks, steady and step alike,
which solve with J and J^T for one right-hand side or a column of them:
condensed onto the network unknowns by shooting along each pipe
(LevelCondensation).  One row operation per cell interval makes the pipe
block lower triangular with bandwidth 3, so it needs no factorization
and no pivoting: a banded triangular substitution (LAPACK dtbtrs) solves
with it, and the caller's splu factors the network block before the
factors are returned.  LevelCondensation.factor condenses one level
block, as each Newton iteration needs, and LevelCondensation.factors a
stack of them at once, as the sweeps do: their pipe blocks stacked level
after level form one band, zero at each pipe's first interval, so one
dtbtrs substitutes B for every level, the levels do not couple, and each
level's factors are those factor() gives it, to the bit.  The steady
block condenses too: its pipe block
stays regular at stagnation (at exact stagnation the network block is
singular, as the whole block is).

The march has two limits, both raised by the factorization as
RuntimeError naming the pipe.  A zero pivot of the pipe block, where an
interval's 2x2 block is singular (near (dt/dx)(c - v) = 1/2) or the flow
sonic, raises.  Shooting from the from-end amplifies the growing mode by
about exp(L sqrt(1 + a dt) / ((c - v) dt)) along a pipe of length L, with
a = lambda |v| / d the friction's rate; the frictionless
exp(L / ((c - v) dt)) is only a lower bound (on a 66 km pipe at 5 m/s,
1.9e4 at dt = 20 s, where the factorization measures 2.6e8, half the
estimate).  A solve loses that factor in relative accuracy; the
factorization raises where a pipe's march grows by more than
MAX_MARCH_GROWTH: on that pipe where dt is below about 43-56 s, depending
on the flow (the growth follows the pipe's length, not its cells).  These
two refusals are the only limit on the time step: the estimate needs the
flow and lambda, which set-up does not know, so no run is checked before
it starts.  A singular network block raises SuperLU's RuntimeError at the
factorization too."""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dtbtrs

# SuperLU panel size: one column per panel, for the small network block S^T
# (about 3 entries per column), where panels of 2 and 4 gained nothing.
LU_PANEL_SIZE = 1

# The largest growth of a pipe's march the factorization accepts, as it
# measures it (about half the growing mode's factor): a solve's relative
# error is about 1e-16 to 1e-15 times it (on a 66 km pipe in 100 m cells at
# short steps, against a dense solve: 5e-12 at 3e4, 1.5e-11 at 6e4, 4e-10
# at 6e5).
MAX_MARCH_GROWTH = 5e4


class CondensedFactors:
    """Solves with a level block J, in LevelCondensation's partition: L, the
    pipe block after the row operation and scaling, and B, C and D, the
    blocks of the pipe rows by the network unknowns, of the network rows by
    the pipe unknowns and of the network rows by the network unknowns.
    LevelCondensation.factor(s) builds them all: x = X = L^-1 B, B's two
    columns (q_0, rho_0) substituted once, each as a column, x_ends its
    rho_0 column's rows at each pipe's to-end (q_N, rho_N), and lu,
    SuperLU's factors of S^T for S = D - C X; b_vals, B's values per pipe,
    and x_ends have a trailing axis for the right-hand sides' columns.  A
    solve substitutes its right-hand sides alone, one dtbtrs on L (two on
    L^T for J^T), in one buffer whose rows are the band's, the network's
    and the from-coupling's (rho_0's), in LevelCondensation's order, and
    changes no factor."""

    def __init__(self, cond: "LevelCondensation", ab, scales, b_vals, x,
                 x_ends, lu):
        self.cond, self.ab, (self.tau, self.inv_m, self.inv_mom) = \
            cond, ab, scales
        self.b_vals, self.x, self.x_ends, self.lu = b_vals, x, x_ends, lu

    def solve(self, b: np.ndarray) -> np.ndarray:
        """J^-1 b: rho_0 = rho_from + b_from by each from-coupling row, so
        x_P = z - X (q_0, rho_0) with z = L^-1 T Lambda b_P, and S y = b_N -
        C (z - X_rho b_from), X's rows at the to-ends."""
        k, n = self.cond, 2 * len(self.tau)
        flat = b.reshape(len(b), -1).T.take(k.row_take, 1, mode="clip")
        pipes, cols = len(k.sizes), len(flat)
        mass, mom = flat.T[0:n:2], flat.T[1:n:2]    # T Lambda b_P
        mass -= self.tau * mom
        mass *= self.inv_m
        mom *= self.inv_mom
        x = _substitute(self.ab, flat.T, "N")
        y, rho_0 = x[n:-pipes], x[-pipes:]
        ends = x[k.end_rows].reshape(pipes, 2, cols) \
            - self.x_ends * rho_0[:, None]
        y += k.net_sums(k.minus_c * ends, k.end_net)
        y[:] = self.lu.solve(y, trans="T")
        rho_0 += y[k.from_net]
        g = np.repeat(x[k.start_rows].reshape(pipes, 2, cols), k.sizes,
                      0)                # q_0, rho_0 per band row
        z = x[:n]
        z -= self.x[0] * g[:, 0] + self.x[1] * g[:, 1]
        return x.take(k.perm, 0).reshape(b.shape)

    def solve_transposed(self, c: np.ndarray) -> np.ndarray:
        """J^-T c: with c = (c_P, c_N, c_0) in LevelCondensation's order, v
        = L^-T (c_P - C^T w), S^T w = c_N + E^T c_0 - B^T L^-T c_P (E: each
        from-coupling row's -1 at its node), the from-coupling rows' mu =
        c_0 - (pipe rows by rho_0)^T v, and the pipe rows' multipliers T^T
        Lambda v for the row operation T and the unit-diagonal scaling
        Lambda."""
        k, n = self.cond, 2 * len(self.tau)
        flat = c.reshape(len(c), -1).T.take(k.inv_perm, 1, mode="clip")
        pipes, cols = len(k.sizes), len(flat)
        v = _substitute(self.ab, flat.T, "T")
        w, mu = v[n:-pipes], v[-pipes:]
        b_vals = self.b_vals     # B^T v per pipe: q_0, rho_0
        at = (b_vals * v[k.first_rows].reshape(-1, 2, 1, cols)).sum(1)
        at[:, 1] -= mu
        w -= k.net_sums(at, k.start_net)
        w[:] = self.lu.solve(w)
        g = np.zeros((cols, n))     # -C^T w at (q_N, rho_N)
        g.T[k.end_rows] = k.minus_c.reshape(-1, 1) * w[k.end_net]
        z = v[:n]
        z += _substitute(self.ab, g.T, "T")
        mu -= (b_vals[:, :, 1] * z[k.first_rows].reshape(-1, 2, cols)).sum(1)
        z[0::2] *= self.inv_m
        z[1::2] *= self.inv_mom
        z[1::2] -= self.tau * z[0::2]
        return v.take(k.row_perm, 0).reshape(c.shape)


def _substitute(ab: np.ndarray, rhs: np.ndarray, trans: str) -> np.ndarray:
    """dtbtrs's result: rhs's band rows solved with L ("N") or L^T ("T")."""
    return dtbtrs(ab, rhs, uplo="L", trans=trans, diag="U", overwrite_b=1)[0]


class LevelCondensation:
    """Condensed factorization of the level blocks, by shooting along each
    pipe.

    A pipe's from-end density is its from-node's, rho_0 = rho_from + b by
    its from-coupling row, and its from-end flow q_0 joins the network
    unknowns (nodes, compressors, then one q_0 per pipe), as its
    to-coupling row joins the network rows (node and compressor rows, then
    one to-coupling row per pipe).  The pipe block keeps each cell
    interval's right-end (q_R, rho_R) against its mass and momentum rows,
    in band order, pipe after pipe: block lower bidiagonal.  The mass row
    less tau = m_rhoR / M_rhoR times the momentum row (tau = 0 on steady
    values, whose mass rows do not read rho) has no rho_R entry, so the
    block is lower triangular with bandwidth 3, with pivots det(D_i) /
    M_rhoR and M_rhoR for the interval's 2x2 block D_i; each row is scaled
    to a unit diagonal.  `factor` reads J's values in the assembler's
    entry order (the box stencil leads: mass rows by rho_L, rho_R, q_L,
    q_R, then momentum rows alike); `rows` and `cols` give each entry's
    row and column, whence D, and `c` each pipe end's balance entry.
    """

    def __init__(self, rows, cols, left, points, node_cols, c, names):
        self.names = names
        n, pipes = len(left), len(points)
        pts, size = int(points.sum()), int(rows.max()) + 1  # every row has one
        nc = size - 2 * pts          # nodes and compressors
        m, band = nc + pipes, 2 * n
        pair = lambda a, b: np.array([a, b]).T.ravel()   # a_0, b_0, a_1, ...
        self.stops = np.cumsum(points - 1)        # intervals, cumulated
        first, last = self.stops - (points - 1), self.stops - 1
        self.sizes = 2 * (points - 1)              # band rows per pipe
        starts = np.cumsum(points) - points        # each pipe's first point
        self.from_net, self.to_net = (node_cols.reshape(-1, 2) - 2 * pts).T
        self.q0_net = nc + np.arange(pipes)
        self.net = m
        # per pipe: the to-node balance row reads q_N, the to-coupling rho_N
        # (C), and B's columns are q_0 and the from-node's density
        self.minus_c = -np.array([c[1::2], np.ones(pipes)]).T[:, :, None]
        self.end_net = pair(self.to_net, self.q0_net)
        self.start_net = pair(self.q0_net, self.from_net)
        # a solve's buffer rows: the band's (first and last interval of each
        # pipe), and q_0's (a network row) and rho_0's per pipe
        self.first_rows = pair(2 * first, 2 * first + 1)
        self.end_rows = pair(2 * last, 2 * last + 1)
        rho_0 = band + m + np.arange(pipes)
        self.start_rows = pair(band + self.q0_net, rho_0)
        # the gas unknowns' places in [band (q_R, rho_R per interval),
        # network, rho_0], and the gas rows' in [band (mass, momentum),
        # network, from-coupling]; the inverses gather a solve's input
        coupling, right, seq = band + 2 * np.arange(pipes), left + 1, \
            np.arange(n)
        self.perm = perm = np.empty(size, dtype=np.intp)
        perm[right], perm[pts + right] = 2 * seq + 1, 2 * seq
        perm[2 * pts:] = band + np.arange(nc)
        perm[pts + starts], perm[starts] = band + self.q0_net, rho_0
        self.row_perm = row_perm = np.empty_like(perm)
        row_perm[:band] = np.concatenate([2 * seq, 2 * seq + 1])
        row_perm[coupling], row_perm[coupling + 1] = rho_0, band + self.q0_net
        row_perm[2 * pts:] = perm[2 * pts:]
        self.inv_perm, self.row_take = np.empty_like(perm), np.empty_like(perm)
        self.inv_perm[perm] = self.row_take[row_perm] = np.arange(size)
        # L's band, (4, band) in Fortran order, taken from factors' scaled
        # rows (mass less tau momentum, then momentum, each by rho_L, rho_R,
        # q_L, q_R per interval) and a zero: at the q column's diagonal and
        # the rho column's third subdiagonal, past the last row, and where
        # an interval's left end is its pipe's q_0 and rho_0 (B's entries);
        # the rho column's unit diagonal (4) is not read
        take = seq[:, None] * np.array([0, 1, 1, 1, 1, 1, 1, 0]) + np.array(
            [8 * n, 7 * n, 2 * n + 1, 6 * n + 1, 1, 1, 4 * n + 1, 8 * n])
        take[last, 2:7] = 8 * n
        self._band_take = take.ravel()
        # B's values per pipe, (mass, momentum) row by (q_0, rho_0) column,
        # and B's two columns, zero (8 n) past the first interval's rows
        self._b_take = np.array([2 * n + first, first, 6 * n + first,
                                 4 * n + first]).T.ravel()
        self._x_take = np.full((2, band), 8 * n)
        self._x_take[:, self.first_rows] = self._b_take.reshape(-1, 2).T
        # S's CSR pattern: D's entries (none among the leading box entries),
        # then the Schur products, which the pipes at one node (or between
        # one pair of nodes) add into a slot
        r, q = row_perm[rows[8 * n:]] - band, perm[cols[8 * n:]] - band
        d = np.flatnonzero((r >= 0) & (r < m) & (q >= 0) & (q < m))
        self._d_take = 8 * n + d
        keys = np.concatenate([
            m * r[d] + q[d],
            (m * self.end_net.reshape(-1, 2, 1)
             + self.start_net.reshape(-1, 1, 2)).ravel()])
        unique = keys[np.argsort(keys, kind="stable")]
        unique = unique[np.concatenate([[True], unique[1:] != unique[:-1]])]
        self.schur_slots = np.searchsorted(unique, keys)
        self.schur = sparse.csc_matrix(
            (np.zeros(len(unique)), (unique % m).astype(np.int32),
             np.searchsorted(unique, m * np.arange(m + 1)).astype(np.int32)),
            shape=(m, m))

    def net_sums(self, per_end: np.ndarray, net: np.ndarray) -> np.ndarray:
        """The network-sized sums of per_end's rows, one per pipe end (or
        per pipe and B column), each at its network row in `net`."""
        k = per_end.shape[-1]
        at = net if k == 1 else (k * net[:, None] + np.arange(k)).ravel()
        return np.bincount(at, per_end.ravel(), self.net * k).reshape(-1, k)

    def _zero_pivot(self, pivots: np.ndarray):
        n = len(self._band_take) // 8
        pipe = self.names[np.searchsorted(
            self.stops, np.flatnonzero(pivots == 0)[0] % n, "right")]
        raise RuntimeError(f"zero pivot in the pipe block of pipe {pipe}")

    def _grown(self, growth: np.ndarray):
        at = growth.max(1).argmax()
        raise RuntimeError(
            f"march growth {growth[at].max():.3g} along pipe "
            f"{self.names[at % len(self.names)]} exceeds "
            f"{MAX_MARCH_GROWTH:.0e}: dt is too short for its shooting")

    def _scale(self, vals, scaled):
        """The pipe rows' scaled values, into `scaled`, from their values
        `vals` (m, M by rho_L, rho_R, q_L, q_R, each by interval, of one
        level or of each level of a stack): the mass row less tau times the
        momentum row, each row by its pivot; returns (tau, 1/pivot of the
        mass rows, of the momentum rows).  A zero pivot raises RuntimeError
        naming the pipe."""
        if np.count_nonzero(vals[5]) < vals[5].size:
            self._zero_pivot(vals[5])
        tau = vals[1] / vals[5]
        np.multiply(tau, vals[4:], out=scaled[:4])
        np.subtract(vals[:4], scaled[:4], out=scaled[:4])
        if np.count_nonzero(scaled[3]) < vals[5].size:
            self._zero_pivot(scaled[3])
        inv_m, inv_mom = 1.0 / scaled[3], 1.0 / vals[5]
        scaled[:4] *= inv_m
        np.multiply(vals[4:], inv_mom, out=scaled[4:])
        return tau, inv_m, inv_mom

    def factor(self, values, splu) -> CondensedFactors:
        """Factors of the level Jacobian `values` (read, not copied); a zero
        pivot, a march grown past MAX_MARCH_GROWTH or a singular S (`splu`
        factors S^T) raises RuntimeError."""
        n = len(self._band_take) // 8
        src = np.empty(8 * n + 1)
        tau, inv_m, inv_mom = self._scale(values[:8 * n].reshape(8, n),
                                          src[:-1].reshape(8, n))
        src[-1] = 0.0
        ab = src.take(self._band_take).reshape(-1, 4).T
        x = _substitute(ab, src.take(self._x_take).T, "N")
        # X's rows at each pipe's to-end (q_N, rho_N), which C reads
        ends = x[self.end_rows].reshape(-1, 2, 2)
        # each march's growth, free of units: its larger diagonal term, at
        # least half the trace, the growing mode's eigenvalue
        growth = np.abs(ends.reshape(-1, 4)[:, ::3])
        if growth.max() > MAX_MARCH_GROWTH:
            self._grown(growth)
        self.schur.data = np.bincount(self.schur_slots, np.concatenate(
            [values[self._d_take], (self.minus_c * ends).ravel()]),
            minlength=len(self.schur.indices))
        return CondensedFactors(
            self, ab, (tau[:, None], inv_m[:, None], inv_mom[:, None]),
            src.take(self._b_take).reshape(-1, 2, 2, 1),
            (x[:, :1], x[:, 1:]), ends[:, :, 1:],
            splu(self.schur, panel_size=LU_PANEL_SIZE))

    def factors(self, values, splu) -> list[CondensedFactors]:
        """Factors of a stack of level Jacobians, `values` of shape
        (levels, entries) (read, not copied): one CondensedFactors per
        level, each as factor() gives it.  The scaling, the band, B, the
        growth test and S's values are built once for the stack, and
        X = L^-1 B by one dtbtrs on the band stacked level after level
        (levels do not couple: the band is zero at each pipe's first
        interval); `splu` factors each level's S^T.  A zero pivot, a march
        grown past MAX_MARCH_GROWTH or a singular S at any level raises
        RuntimeError, naming the pipe where it is one's."""
        levels, n = len(values), len(self._band_take) // 8
        band, pipes = 2 * n, len(self.names)
        src = np.empty((levels, 8 * n + 1))   # level after level
        scales = self._scale(  # each (levels, intervals)
            values[:, :8 * n].reshape(levels, 8, n).transpose(1, 0, 2),
            src[:, :-1].reshape(levels, 8, n).transpose(1, 0, 2))
        src[:, -1] = 0.0
        ab = src.take(self._band_take, 1).reshape(-1, 4).T
        x = _substitute(ab, src.take(self._x_take, 1).transpose(1, 0, 2)
                        .reshape(2, -1).T, "N")
        ends = x.reshape(levels, band, 2)[:, self.end_rows].reshape(
            levels, pipes, 2, 2)
        growth = np.abs(ends.reshape(-1, 4)[:, ::3])
        if growth.max() > MAX_MARCH_GROWTH:
            self._grown(growth)
        schur = np.concatenate([values[:, self._d_take],
                                (self.minus_c * ends).reshape(levels, -1)], 1)
        b_vals = src.take(self._b_take, 1).reshape(levels, pipes, 2, 2, 1)
        scales = np.array(scales)[..., None]
        x = x.T.reshape(2, levels, band, 1)
        out = []
        for k in range(levels):
            self.schur.data = np.bincount(self.schur_slots, schur[k],
                                          len(self.schur.indices))
            out.append(CondensedFactors(
                self, ab[:, k * band:(k + 1) * band], scales[:, k], b_vals[k],
                x[:, k], ends[k, :, :, 1:],
                splu(self.schur, panel_size=LU_PANEL_SIZE)))
        return out
