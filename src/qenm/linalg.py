"""Linear algebra on a bare operator: the bond operator, its block factor and its spectral ends.

Nothing here knows a system, a mass or a lattice.  A positive definite
operator, banded in the ``narrow_order`` of its sites, is factored
block-tridiagonally (``factor``) in O(N w^2) time and O(N w) memory, for
M^-1 b, Tr M^-1 and, by Sylvester's law of inertia, whether it is positive
definite; ``factor`` refuses where an array would pass FACTOR_ENTRIES.
The ends of a symmetric operator's spectrum come from such factorizations
shifted outside its Gershgorin interval, by one block Lanczos loop whose
starts are ``boltzmann.prf_uniform`` uniforms, so every rerun is identical.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .boltzmann import prf_uniform

RITZ_RTOL = 1e-13  # Lanczos stop: residual norm of the largest Ritz pair relative to its value
FACTOR_ENTRIES = 1 << 23  # most entries per array of a block factorization (64 MB of float64)
BLOCK_SITES = 32  # narrowest block of a factorization: below it Python calls cost more than BLAS
LANCZOS_STEPS = 64  # most Lanczos steps for lambda_max before bisection takes over
RITZ_ROOM = 16  # Lanczos basis columns first allocated per start column; doubled when full
SHIFT_RTOL = 1e-6  # how far each shift of the spectral ends lies outside the Gershgorin
                   # interval, relative to the interval's upper end


class BondOperator:
    """The matrix with ``vals`` at (``rows``, ``cols``), each position once, applied by gathers.

    A row of A holds its diagonal and one entry per bond of its site, a row
    of B one per bond, a row of B^T two: at most w = SPARSITY + 1 on a sheet.
    So the triples are kept, for the factorization and the views, and on
    the first product also as two (w, rows) tables: ``index[l, i]``, the
    column of row i's l-th entry in ascending column order, and
    ``weight[l, i]`` its value, 0 in the empty slots of shorter rows.
    ``op @ x``, for a (cols,) vector or (cols, k) block, real or complex, is
    one gather of every slot, one product with the weights, and a sum that
    starts every row at 0 and adds its entries in column order, so it
    rounds as a CSR product does.  ``apply`` makes the same product along
    any axis of x, the last one for a block stacked site-last, with the
    same bits for each row.
    """

    dtype = np.dtype(float)

    def __init__(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                 shape: tuple[int, int]):
        self.rows, self.cols, self.vals, self.shape = rows, cols, vals, shape

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        # one distinct key per position, so sorting the keys gives lexsort's order; the
        # stable sort (timsort) is the faster one on the ascending runs the triples hold
        order = np.argsort(self.rows * self.shape[1] + self.cols, kind="stable")
        rows = self.rows[order]
        counts = np.bincount(rows, minlength=self.shape[0])
        slot = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        index = np.zeros((counts.max(initial=0), self.shape[0]), dtype=np.intp)
        weight = np.zeros(index.shape)
        index[slot, rows] = self.cols[order]
        weight[slot, rows] = self.vals[order]
        return index, weight

    @property
    def slots(self) -> int:
        """Entries of the longest row: a product gathers this many values per row of x."""
        return self._tables[0].shape[0]

    @property
    def T(self) -> BondOperator:
        return BondOperator(self.cols, self.rows, self.vals, self.shape[::-1])

    def __matmul__(self, x) -> np.ndarray:
        return self.apply(x)

    def apply(self, x, axis: int = 0, out: np.ndarray | None = None) -> np.ndarray:
        """The product with every 1-D slice of x along ``axis``, which becomes the rows
        axis; written into ``out`` when it is given."""
        x = np.asarray(x)
        x = x.astype(np.result_type(x.dtype, self.dtype), copy=False)
        axis %= x.ndim
        index, weight = self._tables
        terms = np.take(x, index, axis=axis, mode="clip")   # axis -> (w, rows); indices valid
        terms *= weight.reshape(weight.shape + (1,) * (x.ndim - 1 - axis))
        return terms.sum(axis=axis, initial=0.0, out=out)   # slot by slot, from 0

    def diagonal(self) -> np.ndarray:
        out = np.zeros(min(self.shape))
        on = self.rows == self.cols
        out[self.rows[on]] = self.vals[on]
        return out

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.vals
        return out


def restricted(m: BondOperator, sites: np.ndarray) -> BondOperator:
    """The square ``m`` over ``sites`` alone, with its old site sites[i] as site i."""
    rank = np.full(m.shape[0], -1)
    rank[sites] = np.arange(len(sites))
    rows, cols = rank[m.rows], rank[m.cols]
    keep = (rows >= 0) & (cols >= 0)
    return BondOperator(rows[keep], cols[keep], m.vals[keep], (len(sites), len(sites)))


def bandwidth(m: BondOperator) -> int:
    return int(np.abs(m.rows - m.cols).max(initial=0))


def narrow_order(m: BondOperator) -> np.ndarray:
    """An order of ``m``'s sites: node order, or breadth-first level order
    where that has the smaller bandwidth.

    Levels grow from the lowest site of each connected piece, and a bond
    joins sites of one level or of two adjacent ones, so the bandwidth is
    below two levels' width.  A sheet's levels run across its shorter side:
    the bonded block of the 5x5 sheet has bandwidth 46 in level order and
    63 in node order, 7x7 190 and 255, 2x9 4 and 1023.  One long bond
    stays narrow.
    """
    n = m.shape[0]
    width = bandwidth(m)
    if width <= BLOCK_SITES:        # no order makes the blocks narrower
        return np.arange(n)
    order = level_order(m)
    return order if bandwidth(restricted(m, order)) < width else np.arange(n)


def level_order(m: BondOperator) -> np.ndarray:
    """``m``'s sites level by level, each level ascending, each connected piece
    grown from its lowest site.

    A level is one gather of its sites' slots in the (w, n) neighbour table
    ``index`` of ``m._tables``, one mark array of the sites it reaches and
    one ``flatnonzero`` of those not seen before, which comes out sorted and
    once each (not np.unique, whose first call imports numpy.ma).  The empty
    slots of short rows read site 0, which the first level has seen.
    """
    n = m.shape[0]
    index = m._tables[0]
    seen = np.zeros(n, dtype=bool)
    levels, frontier, count = [], np.empty(0, dtype=np.intp), 0
    while count < n:
        if len(frontier) == 0:      # the next connected piece, from its lowest site
            frontier = np.array([np.argmin(seen)])
            seen[frontier] = True
        levels.append(frontier)
        count += len(frontier)
        reached = np.zeros(n, dtype=bool)
        reached[index[:, frontier]] = True
        frontier = np.flatnonzero(reached > seen)
        seen[frontier] = True
    return np.concatenate(levels)


def factor(m: BondOperator) -> BlockTridiagonal | None:
    """``m``'s block factorization, or None when each of its arrays would hold
    more than FACTOR_ENTRIES entries (the block width w is known before any
    is allocated).  w is the bandwidth, but at least BLOCK_SITES.  In
    ``narrow_order`` a sheet's arrays fit through 7x7 (6.1e6 entries); at
    8x8 each would hold about eight times that.
    """
    w = max(bandwidth(m), BLOCK_SITES)
    if -(-m.shape[0] // w) * w * w > FACTOR_ENTRIES:
        return None
    return BlockTridiagonal(m, w)


def fitted(factored: BlockTridiagonal | None) -> BlockTridiagonal:
    """``factored``, for the exact answers that have no fallback; past the cap, ValueError."""
    if factored is None:
        raise ValueError(f"the block factorization of A would hold more than {FACTOR_ENTRIES} "
                         f"entries per array")
    return factored


def sheet_factor_entries(spec) -> int:
    """A bound on the entries of each array of ``factor`` for the ``lattice.LatticeSpec``
    ``spec``, known before its system is built.

    In ``narrow_order`` a sheet's levels run across its shorter side, so
    its bandwidth stays below 2^(min(n_r, n_c) + 1); with that width, at
    least BLOCK_SITES, and all n_total sites, the count is ``factor``'s.
    7x7 fits in FACTOR_ENTRIES and 8x8 does not.
    """
    w = max(2 << min(spec.n_r, spec.n_c), BLOCK_SITES)
    return -(-spec.n_total // w) * w * w


class BlockTridiagonal:
    """Block LDL^T factorization of a positive definite matrix of bandwidth at most w.

    Cut into blocks of w consecutive sites, the matrix is block tridiagonal:
    D_i on the diagonal and E_i = M[block i + 1, block i] below it.  The
    Schur complements S_0 = D_0, S_i = D_i - E_{i-1} S_{i-1}^-1 E_{i-1}^T give
    M = L diag(S_i) L^T, L_{i+1,i} = E_i S_i^-1.  ``inv`` holds the S_i^-1 and
    ``low`` the E_i S_i^-1 (zero for the last block, which has no next one),
    each (blocks, w, w): O(N w) memory and O(N w^2) time.  The last block is
    padded with a unit diagonal that couples to nothing.
    """

    def __init__(self, m: BondOperator, w: int):
        n = m.shape[0]
        r, c = m.rows, m.cols
        blocks = -(-n // w)
        inv = np.zeros((blocks, w, w))
        low = np.zeros((blocks, w, w))
        same = r // w == c // w
        inv[r[same] // w, r[same] % w, c[same] % w] = m.vals[same]
        below = r // w == c // w + 1
        low[c[below] // w, r[below] % w, c[below] % w] = m.vals[below]
        pad = np.arange(n, blocks * w)
        inv[pad // w, pad % w, pad % w] = 1.0
        for i in range(blocks):
            if i:
                step = low[i - 1] @ inv[i - 1]
                inv[i] -= step @ low[i - 1].T
                low[i - 1] = step
            inv[i] = np.linalg.inv(inv[i])
        self.n, self.inv, self.low = n, inv, low

    def solve(self, b: np.ndarray) -> np.ndarray:
        """M^-1 b for an (n,) vector or (n, k) block by block forward and back substitution."""
        blocks, w, _ = self.inv.shape
        x = np.zeros(((blocks + 1) * w, *b.shape[1:]))       # a zero block past the last
        x[:self.n] = b
        x = x.reshape(blocks + 1, w, *b.shape[1:])
        for i in range(1, blocks):
            x[i] -= self.low[i - 1] @ x[i - 1]
        for i in reversed(range(blocks)):
            x[i] = self.inv[i] @ x[i] - self.low[i].T @ x[i + 1]
        return x.reshape((blocks + 1) * w, *b.shape[1:])[:self.n]

    def positive_definite(self) -> bool:
        """Whether M is positive definite: by Sylvester's law of inertia exactly
        when every S_i is, so when every S_i^-1 has a Cholesky factor.  One
        block at a time, so no copy of ``inv`` is made."""
        try:
            for block in self.inv:
                np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            return False
        return True

    def inverse_trace(self) -> float:
        """Tr M^-1 from the diagonal blocks G_i of M^-1.

        G_last = S_last^-1 and G_i = S_i^-1 + L_{i+1,i}^T G_{i+1} L_{i+1,i}.
        """
        blocks, w, _ = self.inv.shape
        diagonal = np.empty((blocks, w))
        g = np.zeros((w, w))
        for i in reversed(range(blocks)):
            g = self.inv[i] + self.low[i].T @ g @ self.low[i]
            diagonal[i] = g.diagonal()
        return float(diagonal.reshape(-1)[:self.n].sum())


def gershgorin(m: BondOperator) -> tuple[float, float]:
    """The ends [lo, hi] of the square ``m``'s Gershgorin interval."""
    diag = m.diagonal()
    radius = np.bincount(m.rows, np.abs(m.vals), m.shape[0]) - np.abs(diag)
    return float((diag - radius).min()), float((diag + radius).max())


def shifted(m: BondOperator, mu: float, sign: float = 1.0) -> BondOperator:
    """sign (mu - m), for a square ``m`` that has every diagonal entry."""
    return BondOperator(m.rows, m.cols, sign * (mu * (m.rows == m.cols) - m.vals), m.shape)


def _top_ritz_values(solve, start: np.ndarray, cap: int) -> tuple[np.ndarray, bool]:
    """The k largest Ritz values, ascending, of the positive definite T that ``solve``
    applies, by block Lanczos from the span of the (n, k) ``start``, and whether
    they converged.

    Each block of the basis Q is the orthonormal basis of the last W (W over its
    norm when k = 1), cut to n or ``cap`` columns in all, so k equal eigenvalues
    are found as surely as one (Golub and Underwood, 1977).  W is T times that
    block, orthogonalized twice against all of Q; the first pass's coefficients
    Q^T W are the new columns of H = Q^T T Q.  A Ritz value of H never lies above
    the eigenvalue it approaches, and the residual of its pair (theta, Q s) is W
    times the newest block's rows of s.  The run has converged when the k
    residuals are within RITZ_RTOL of theta_max, or when Q spans the space;
    otherwise it stops at ``cap`` columns.
    """
    n, k = start.shape
    cap = min(cap, n)
    room = min(RITZ_ROOM * k, cap)
    basis, h, w, m = np.empty((n, room)), np.empty((room, room)), start, 0
    while True:
        block = (np.linalg.qr(w)[0] if k > 1 else w / np.linalg.norm(w))[:, :cap - m]
        b = block.shape[1]
        if m + b > len(h):      # Q and H are full: twice the room, up to cap columns
            room = min(2 * (m + b), cap) - len(h)
            basis, h = np.pad(basis, ((0, 0), (0, room))), np.pad(h, (0, room))
        basis[:, m:m + b] = block
        m += b
        q = basis[:, :m]
        w = solve(block)
        columns = q.T @ w
        h[:m, m - b:m] = columns
        h[m - b:m, :m] = columns.T
        w -= q @ columns
        w -= q @ (q.T @ w)
        theta, s = np.linalg.eigh(h[:m, :m])
        residual = np.linalg.norm(w @ s[-b:, -k:], axis=0).max()
        converged = bool(m == n or residual <= RITZ_RTOL * theta[-1])
        if converged or m == cap:
            return theta[-k:], converged


def smallest_eigenvalues(A: BondOperator, k: int) -> np.ndarray:
    """The k smallest eigenvalues of the symmetric ``A``, descending, by shift-invert Lanczos.

    sigma lies just below min(lo, 0) of A's Gershgorin interval [lo, hi], so A's
    smallest eigenvalues give the largest, theta = 1 / (lambda - sigma), of the
    positive definite (A - sigma)^-1, far above the rest (Ericsson and Ruhe, Math.
    Comp. 35, 1980).  The run starts from ``prf_uniform(0, n, k)`` and has no cap.
    """
    lo, hi = gershgorin(A)
    sigma = min(lo, 0.0) - SHIFT_RTOL * hi
    solve = fitted(factor(shifted(A, sigma, -1.0))).solve
    return sigma + 1.0 / _top_ritz_values(solve, prf_uniform(0, A.shape[0], k), A.shape[0])[0]


def largest_eigenvalue(A: BondOperator) -> float:
    """lambda_max of the positive semidefinite ``A``, from Lanczos on (sigma - A)^-1
    and, if need be, bisection.

    sigma lies just above A's Gershgorin interval.  On a sheet about as wide
    as it is long, lambda_max lies close to sigma, so theta, the largest
    eigenvalue of (sigma - A)^-1, stands far above the rest, and one column of
    ``prf_uniform(0, n)`` uniforms gives lambda_max = sigma - 1 / theta in 14-20
    steps.  On a long narrow sheet (2x7, 8x2, 10x1) the top of the spectrum is
    crowded, so Lanczos would need hundreds of steps (over 900 at 10x1, 60 s);
    it stops at LANCZOS_STEPS columns, and bisection between its Ritz value, a
    lower bound, and sigma finds the least mu for which mu - A is positive
    definite, one factorization per halving.
    """
    hi = gershgorin(A)[1]
    sigma = hi + SHIFT_RTOL * hi
    solve = fitted(factor(shifted(A, sigma))).solve
    theta, converged = _top_ritz_values(solve, prf_uniform(0, A.shape[0])[:, None], LANCZOS_STEPS)
    lower, upper = sigma - 1.0 / theta[0], sigma
    if converged:
        return lower
    while upper - lower > RITZ_RTOL * upper:
        mid = 0.5 * (lower + upper)
        if factor(shifted(A, mid)).positive_definite():
            upper = mid
        else:
            lower = mid
    return 0.5 * (lower + upper)
