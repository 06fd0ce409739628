"""Graded radial grid on [1, r_max], quadrature and finite-difference oracles.

The half-line [1, inf) is truncated at r_max with node grading
r_i = 1 + (i/n)^gamma (r_max - 1); tails of outer integrals are closed
analytically with the declared power-law exponent.  Per-cell quadrature
integrates the cubic through the four nodes around each cell, so it is exact
on cubics and the composite rule is 4th order.  Differentiation uses 5-point
stencils (4th order interior, one-sided at the ends).

For the k != 0 Green's formulas the integrands carry e^{+|k|s} or e^{-|k|s}
factors.  Each cell integral is a dot product of the cell's 4 stencil values
with a weight row, anchored at the cell end where the exponential is
largest, that integrates the cell's cubic against the exponential exactly
at every rate (closed-form moments, see RadialGrid._cell_rules).
exp_weighted_integrals chain the cell integrals of a prefix (rates >= 0)
and of a suffix (rates < 0) with the recurrence out_{c+1} = e^{-|rate| h_c}
out_c + C_c, whose factors never exceed 1, and return plain mantissa arrays
out with integral(r_j) = out_j * e^{rate r_j}, so a kernel mantissa at the
opposite shift multiplies them with no exponential left over.  Each side is
one integrand or an (R, n+1) stack with one rate per row (the mode solvers
pass all modes k = 1..K at once), or a (P, R, n+1) stack of P problems
that share those rates (the lockstep Picard loop); both sides run as one
doubling scan, from a read-only plan of cell weights and step factors cached
per (prefix rates, suffix rates) and broadcast over the problem axis.
exp_weighted_prefix, exp_weighted_suffix, integrate_inner and
integrate_outer (at rate 0) are its one-sided cases.

fd_bvp_solve is the independent verification path: a second-order
finite-difference solution of the two-point problems

    -(v'' + p1(r) v' + p0(r) v - ksq v) = f,  v(1) given, v decaying,

closed at r_max by the Robin condition v' + (decay/r + sqrt(ksq)) v = 0.
Every closed-form representation in the mode solvers is checked against it.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NumericError

__all__ = [
    "RadialGrid",
    "RadialProfile",
    "weighted_sup",
    "integrate_inner",
    "integrate_outer",
    "exp_weighted_prefix",
    "exp_weighted_suffix",
    "exp_weighted_integrals",
    "tail_closure",
    "decay_fit",
    "fd_bvp_solve",
    "fd_meridional_solve",
]

def _vander(t: np.ndarray, n: int) -> np.ndarray:
    """np.vander(t, n, increasing=True) for every entry of a stack t."""
    return np.vander(t.ravel(), n, increasing=True).reshape(t.shape + (n,))


def _local_weights(points: np.ndarray, x0, order: int) -> np.ndarray:
    """Weights w with sum_j w_j f(points_j) ~ f^(order)(x0) (exact on polys).

    points (..., n) with x0 (...) stacks independent stencils.
    """
    pts = np.asarray(points, float)
    n = pts.shape[-1]
    scale = np.maximum(pts.max(axis=-1) - pts.min(axis=-1), 1e-30)
    t = (pts - np.asarray(x0)[..., None]) / scale[..., None]
    rhs = np.zeros(pts.shape)
    # float_power calls C pow() per element; `** 2` squares instead and
    # rounds differently in the last bit
    rhs[..., order] = math.factorial(order) / np.float_power(scale, order)
    v = _vander(t, n).swapaxes(-1, -2)
    return np.linalg.solve(v, rhs[..., None])[..., 0]


def _phi_functions(z: np.ndarray) -> np.ndarray:
    """phi_j(z) = sum_{i>=0} z^i / (i+j)! for j = 1..4 at z <= 0, as (4, n).

    For |z| < 2 phi_4 is a 22-term Horner sum and phi_j = 1/j! + z phi_{j+1};
    elsewhere phi_{j+1} = (phi_j - 1/j!) / z runs up from phi_0 = e^z (its
    cancellation would cost phi_4 about five bits if it started at |z| = 1).
    """
    series = np.empty((4,) + z.shape)
    acc = np.full_like(z, 1.0 / math.factorial(25))
    for i in range(20, -1, -1):
        acc *= z
        acc += 1.0 / math.factorial(i + 4)
    series[3] = acc
    for j in (2, 1, 0):
        series[j] = 1.0 / math.factorial(j + 1) + z * series[j + 1]
    small = np.abs(z) < 2.0
    zr = np.where(small, -2.0, z)
    rec = np.empty_like(series)
    acc = np.exp(zr)
    for j in range(4):
        acc = rec[j] = (acc - 1.0 / math.factorial(j)) / zr
    return np.where(small, series, rec)


class RadialGrid:
    """Strictly increasing nodes r_0 = 1 < ... < r_n = r_max."""

    def __init__(self, nodes):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 8:
            raise DomainError("grid needs at least 8 nodes")
        if not np.all(np.isfinite(nodes)):
            raise DomainError("grid nodes must be finite")
        if abs(nodes[0] - 1.0) > 1e-14:
            raise DomainError("radial grid must start exactly at r = 1")
        if np.any(np.diff(nodes) <= 0):
            raise DomainError("grid nodes must be strictly increasing")
        self.nodes = nodes
        self.nodes.setflags(write=False)
        self._cache = {}

    @classmethod
    def graded(cls, n: int, r_max: float = 100.0, gamma: float = 2.0) -> "RadialGrid":
        if r_max <= 1.0 or not isinstance(n, numbers.Integral) or n < 8:
            raise DomainError("need r_max > 1 and an integer n >= 8")
        i = np.arange(n + 1, dtype=float) / n
        return cls(1.0 + i ** gamma * (r_max - 1.0))

    @property
    def n_cells(self) -> int:
        return self.nodes.size - 1

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    def __len__(self):
        return self.nodes.size

    def last_decade_mask(self) -> np.ndarray:
        return self.nodes >= self.r_max / 10.0

    # -- cached discrete operators ------------------------------------------

    def cached(self, key, build: Callable, keep: bool = True):
        """The operator cached under key, or on a miss build(), with every
        array in it (through tuples and namespaces) made read-only and
        stored under key unless keep is False."""
        entry = self._cache.get(key)
        if entry is None:
            entry = build()
            _freeze(entry)
            if keep:
                self._cache[key] = entry
        return entry

    def _cell_rules(self, rates: np.ndarray):
        """Cell weights W (R, n, 4) and chain factors e^{-|rate| h_c} (R, n)
        for every rate of rates (R,) at once, not cached.

        W[r, c] . b[idx[c]] = int_{cell c} p_c(s) e^{rate (s - a_c)} ds, where
        p_c is the cubic through the 4 stencil values and the anchor a_c is
        the cell's right end for rate > 0 and its left end otherwise, so
        every exponential factor is <= 1.  The rule is exact (Filon-type):
        with theta = (s - far)/(a_c - far) running from 0 at the other cell
        end to 1 at the anchor and z = -|rate| h_c, the moments are

            int_{cell c} theta^i e^{z (1 - theta)} ds = h_c i! phi_{i+1}(z),

        and W[r, c] is that row times the stencil's inverse Vandermonde
        matrix in theta, cached read-only with idx under
        ("cellbasis", rate > 0).
        """
        r = self.nodes
        h = np.diff(r)
        z = -np.abs(rates)[:, None] * h
        # one rate at a time, so the phi-function temporaries stay (4, n)
        moments = np.stack([h * _phi_functions(zr) * np.array(
            [1.0, 1.0, 2.0, 6.0])[:, None] for zr in z], axis=1)
        w = np.empty(z.shape + (4,))
        for right in set((rates > 0).tolist()):  # the anchor sides in use
            def build():
                j0 = np.clip(np.arange(self.n_cells) - 1, 0, len(r) - 4)
                idx = j0[:, None] + np.arange(4)
                theta = (r[idx] - r[:-1, None]) / h[:, None]
                return idx, np.linalg.inv(
                    _vander(theta if right else 1.0 - theta, 4))
            basis = self.cached(("cellbasis", right), build)[1]
            rows = (rates > 0) == right
            w[rows] = np.einsum("irc,cij->rcj", moments[:, rows], basis)
        return w, np.exp(z)

    def differentiate(self, values: np.ndarray, order: int = 1) -> np.ndarray:
        """4th-order differentiation along the first axis of `values`, by
        5-point stencils (indices (n+1,5), weights (n+1,5)) cached per
        order."""
        def build():
            r = self.nodes
            j0 = np.clip(np.arange(r.size) - 2, 0, r.size - 5)
            idx = j0[:, None] + np.arange(5)
            return idx, _local_weights(r[idx], r, order)
        idx, wts = self.cached(("deriv", order), build)
        vals = np.asarray(values)
        gathered = vals[idx]  # (m, 5, ...)
        if gathered.ndim > 2:
            return np.einsum("ij,ij...->i...", wts, gathered)
        return np.einsum("ij,ij->i", wts, gathered)

    def cell_integrals(self, values: np.ndarray) -> np.ndarray:
        """int over each cell of the cubic through its 4 stencil values."""
        w = self._cell_rules(np.zeros(1))[0][0]
        idx = self._cache[("cellbasis", False)][0]
        return np.einsum("cj,cj->c", w, np.asarray(values)[idx])


def _freeze(entry) -> None:
    """Make every array in entry, through tuples and namespaces, read-only."""
    if isinstance(entry, np.ndarray):
        entry.setflags(write=False)
    elif isinstance(entry, (tuple, SimpleNamespace)):
        for e in entry if isinstance(entry, tuple) else vars(entry).values():
            _freeze(e)


# ----------------------------------------------------------------------------
# profiles and weighted norms


@dataclass
class RadialProfile:
    """One Fourier mode's radial dependence, sampled on the grid.

    The zero-mode solvers also return the profiles of P problems at once,
    as arrays (P, n+1).
    """

    grid: RadialGrid
    values: np.ndarray
    d1: Optional[np.ndarray] = None
    d2: Optional[np.ndarray] = None

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape[-1:] != self.grid.nodes.shape:
            raise DomainError("profile values must be sampled on the grid nodes")
        for name in ("d1", "d2"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr)
                if arr.shape != self.values.shape:
                    raise DomainError(f"profile {name} shape mismatch")
                setattr(self, name, arr)

    @classmethod
    def zero(cls, grid: RadialGrid) -> "RadialProfile":
        z = np.zeros(len(grid), dtype=complex)
        return cls(grid, z, z.copy(), z.copy())


def weighted_sup(values, grid: RadialGrid, zeta: float) -> float:
    """sup over nodes of r^zeta |s(r)| (NaN when a value is NaN)."""
    return float(np.max(grid.nodes ** zeta * np.abs(np.asarray(values))))


# ----------------------------------------------------------------------------
# plain quadrature with tail closure


def _sample(f, grid: RadialGrid) -> np.ndarray:
    """f on the grid nodes, from a callable of the nodes or given as an
    array: one profile (n+1,) or a stack (..., n+1); DomainError when its
    last axis does not match the nodes."""
    arr = np.asarray(f(grid.nodes) if callable(f) else f)
    if arr.shape[-1:] != grid.nodes.shape:
        raise DomainError("sampled values do not match the grid")
    return arr


def tail_closure(value_at_rmax, r_max: float, p: float):
    """int_{r_max}^inf A s^{-p} ds with A matched at the last node."""
    if not p > 1.0:  # NaN included
        raise NumericError(f"non-integrable tail: decay exponent {p} is not > 1")
    return value_at_rmax * r_max / (p - 1.0)


def decay_fit(values: np.ndarray, grid: RadialGrid):
    """Least-squares slope of log|v| vs log r over the last decade of nodes.

    The line is the closed form on the centred log-radii x of that decade,
    cached read-only with its mask: slope = x.y / x.x for y = log|v| less
    its mean.  Returns (slope, r_squared) or None when the window is
    effectively zero.
    """
    def build():
        mask = grid.last_decade_mask()
        x = np.log(grid.nodes[mask])
        return mask, x - np.mean(x)

    mask, x = grid.cached("decayfit", build)
    v = np.abs(np.asarray(values)[mask])
    if np.any(v <= 0.0) or np.max(v) < 1e-280:
        return None
    y = np.log(v)
    y -= np.mean(y)
    slope = float(x @ y) / float(x @ x)
    ss_res = float(np.sum((y - slope * x) ** 2))
    ss_tot = float(y @ y)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, r2


def _check_declared_tail(values, grid: RadialGrid, p: float, total) -> None:
    """Warn when the fitted last-decade slope contradicts the declared one."""
    closure = np.abs(tail_closure(values[-1], grid.r_max, p))
    if closure <= 1e-12 * max(np.abs(total), 1e-300):
        return
    fit = decay_fit(values, grid)
    if fit is not None and abs(fit[0] + p) > 0.25:
        warnings.warn(
            f"declared tail exponent {p} but fitted slope {-fit[0]:.3f}; "
            "outer integral tail closure may be inaccurate",
            RuntimeWarning, stacklevel=3)


def integrate_inner(f, grid: RadialGrid):
    """int_1^r f ds at every node r, along the last axis of f."""
    return exp_weighted_integrals(grid, f, 0.0, None, None)[0]


def integrate_outer(f, grid: RadialGrid, decay_exponent: Optional[float] = None,
                    check_tail: bool = True):
    """int_r^inf f ds at every node r = quadrature to r_max + analytic
    power-law tail, along the last axis of f."""
    if decay_exponent is None:
        raise NumericError("outer integrals need a declared decay exponent")
    return exp_weighted_integrals(grid, None, None, f, 0.0,
                                  decay_exponent=decay_exponent,
                                  check_tail=check_tail)[1]


# ----------------------------------------------------------------------------
# exponentially weighted prefix/suffix integrals as mantissas


def exp_weighted_prefix(grid: RadialGrid, b, rate) -> np.ndarray:
    """Mantissas out_j of P(r_j) = int_1^{r_j} b(s) e^{rate s} ds.

    P(r_j) = out_j * e^{rate r_j}.  b is one integrand (n+1,) or a stack
    (R, n+1) with one rate per row (rate of shape (R,), or one rate for
    all rows).  Every rate must be >= 0: in the Green's representations the
    prefix integrands carry growing kernels.  The one-sided case of
    exp_weighted_integrals.
    """
    return exp_weighted_integrals(grid, b, rate, None, None)[0]


def exp_weighted_suffix(grid: RadialGrid, b, rate,
                        keep_plan: bool = True) -> np.ndarray:
    """Mantissas out_j of S(r_j) = int_{r_j}^inf b(s) e^{rate s} ds.

    S(r_j) = out_j * e^{rate r_j}; b and rate are laid out as for
    exp_weighted_prefix.  Every rate must be < 0: the suffix integrands
    carry decaying kernels, whose exponential factor makes the [r_max, inf)
    remainder negligible, so no tail closure is added.  The one-sided case
    of exp_weighted_integrals.
    """
    return exp_weighted_integrals(grid, None, None, b, rate,
                                  keep_plan=keep_plan)[1]


def exp_weighted_integrals(grid: RadialGrid, b_in, rate_in, b_out, rate_out,
                           *, decay_exponent: Optional[float] = None,
                           check_tail: bool = True, keep_plan: bool = True,
                           first_rows: Optional[int] = None):
    """(prefix of b_in at rate_in, suffix of b_out at rate_out) in one scan.

    Each side is laid out as for exp_weighted_prefix / exp_weighted_suffix,
    or None (and its result None) for a one-sided call.  A side may also
    stack P problems along a leading axis, (P, R, n+1) with the rates of its
    R rows; the two sides of a call then stack the same P.  The problems
    read the plan of the R rates, broadcast over the problem axis, so a
    stack of problems adds no plan to the grid cache.  A suffix at rate 0
    is integrate_outer's: it needs decay_exponent, whose power-law tail
    beyond r_max it adds (fitted slope checked when check_tail).  keep_plan
    False leaves no new plan in the grid cache, for one-shot rates.

    first_rows m: each side's stack holds the rows of only the first m of
    its rates (a rate vector).  The scan reads their columns from the plan
    of all the rates, copied per call, so a narrower call adds no plan to
    the grid cache; each column's results keep their bits.
    """
    one_sided = b_in is None or b_out is None
    sides, rates = [], {False: (), True: ()}
    for b, rate, reverse in ((b_in, rate_in, False), (b_out, rate_out, True)):
        if b is None:
            continue
        vals = _sample(b, grid)
        if vals.ndim > 3:
            raise DomainError("exp-weighted integrands are (n+1,), (R, n+1) "
                              "or (P, R, n+1)")
        rows = vals.reshape((-1,) + vals.shape[-2:] if vals.ndim == 3
                            else (1, -1, vals.shape[-1]))  # (P, R, n+1)
        x = np.asarray(rate, dtype=float)
        given = x if first_rows is None else np.atleast_1d(x)[:first_rows]
        if given.shape not in ((), rows.shape[1:2]):
            raise DomainError("exp-weighted integrals take one rate per row")
        tail = reverse and decay_exponent is not None and not x.any()
        if not (tail or (x < 0 if reverse else x >= 0).all()):
            raise DomainError("exp-weighted integrals take prefix rates >= 0 "
                              "and suffix rates < 0 (or 0 with a tail)")
        rates[reverse] = (tuple(x.tolist()) if x.ndim
                          else (float(x),) * rows.shape[1])
        if one_sided and len(set(rates[reverse])) == 1:
            rates[reverse] = rates[reverse][:1]  # one plan column for all rows
        sides.append((vals, rows, reverse, tail))
    if len(sides) == 2 and sides[0][1].shape[0] != sides[1][1].shape[0]:
        raise DomainError("the two sides stack different numbers of problems")
    weights, steps = _scan_plan(grid, rates[False], rates[True], keep_plan)
    if first_rows is not None and first_rows < max(map(len, rates.values())):
        spans = [slice(0, first_rows)] if b_in is not None else []
        if b_out is not None:
            start = len(rates[False])
            spans.append(slice(start, start + first_rows))
        weights = np.concatenate([weights[..., s] for s in spans], axis=-1)
        steps = tuple(np.concatenate([f[:, s] for s in spans], axis=1)
                      for f in steps)
    outs = _scan([(rows, reverse) for _, rows, reverse, _ in sides],
                 weights, steps)
    result = {False: None, True: None}
    for (vals, rows, reverse, tail), out in zip(sides, outs):
        if tail:
            closure = tail_closure(rows[..., -1], grid.r_max, decay_exponent)
            if check_tail:
                for row, total in zip(rows.reshape(-1, rows.shape[-1]),
                                      (out[..., 0] + closure).ravel()):
                    _check_declared_tail(row, grid, decay_exponent, total)
            out = out + closure[..., None]
        result[reverse] = out.reshape(vals.shape)
    return result[False], result[True]


def _scan_plan(grid: RadialGrid, in_rates: tuple, out_rates: tuple,
               keep: bool):
    """Read-only (weights, steps) of a scan over prefix rows at in_rates
    and suffix rows at out_rates, one column per rate, cached unless keep
    is False.  weights (4, n, R) holds the _cell_rules weights by stencil
    index in cell order; steps[j] (n - 2^j, R) holds the products of the
    2^j factors a_c ending at scan positions 2^j..n-1 (a suffix scans right
    to left).
    """
    def build():
        w, a = grid._cell_rules(np.array(in_rates + out_rates))
        m = len(in_rates)
        a[m:] = a[m:, ::-1]
        a = a.T.copy()
        steps = []
        s = 1
        while s < len(a):
            steps.append(a[s:].copy())
            a[s:] *= a[:-s]
            s *= 2
        return np.ascontiguousarray(w.transpose(2, 1, 0)), tuple(steps)
    return grid.cached(("scanplan", in_rates, out_rates), build, keep)


def _scan(sides, weights: np.ndarray, steps) -> list:
    """Chain the anchored cell integrals C_c of every row of sides, the
    prefix and/or the suffix as (rows (P, R_i, n+1), reverse) in plan order,
    from the left end (reverse False) or the right end (reverse True) by

        out_0 = 0,  out_{c+1} = a_c out_c + C_c,  a_c = e^{-|rate| h_c},

    all rows at once, as a doubling (Hillis-Steele) scan: after the step of
    width s each entry holds the chain of the 2s cells ending at it, so
    ceil(log2 n) vectorised steps finish every row.  The cell integrals
    come from four shifted slices of the (P, n+1, R) values; a suffix column
    enters the (re, im) planes (planes * P, n, R) right to left, so the
    steps acc[:, s:] += A_s acc[:, :-s] run over contiguous memory.  The
    leading axis P stacks problems: the plan's weights (4, n, R) and step
    factors (n - s, R) broadcast over it, as over the planes.  No factor
    exceeds 1, so the scan is stable.  Each column's arithmetic is
    independent of the others, so a stacked or two-sided call, or one of
    several problems, is bitwise equal to its row-by-row calls.
    """
    n = weights.shape[1]
    vals = np.concatenate([rows.transpose(0, 2, 1) for rows, _ in sides],
                          axis=2)
    problems, _, cols = vals.shape
    split = sides[0][0].shape[1]
    spans = [slice(0, split), slice(split, None)]
    cells = np.empty((problems, n, cols), np.result_type(vals, weights))
    term = np.empty((problems, n - 2, cols), cells.dtype)
    # stencil term j of cell c reads node c - 1 + j inside, and nodes j and
    # n - 3 + j at the clipped cells c = 0 and c = n - 1; the terms are
    # added in stencil order.  A real weight times a complex value is a
    # complex product, whose zero signs differ from separate products with
    # the real and imaginary parts, so the cells are summed in complex and
    # only the scan runs on planes
    for at, stride in ((slice(1, -1), 1), (slice(None, None, n - 1), n - 3)):
        part = cells[:, at]
        np.multiply(weights[0, at], vals[:, :n - 2:stride], out=part)
        for j in (1, 2, 3):
            t = np.multiply(weights[j, at], vals[:, j:j + n - 2:stride],
                            out=term[:, :part.shape[1]])
            part += t
    parts = (cells.real, cells.imag) if np.iscomplexobj(cells) else (cells,)
    acc = np.empty((len(parts), problems, n, cols))
    for plane, part in zip(acc, parts):
        for span, (_, reverse) in zip(spans, sides):
            plane[..., span] = part[:, ::-1, span] if reverse else part[..., span]
    flat = acc.reshape(-1, n, cols)
    prod = cells.view(float).reshape(flat.shape)  # the cells are in acc now
    s = 1
    for factor in steps:
        flat[:, s:] += np.multiply(factor, flat[:, :-s], out=prod[:, s:])
        s *= 2
    outs = []
    for span, (rows, reverse) in zip(spans, sides):
        out = np.empty(rows.shape, np.result_type(rows, weights))
        out[..., -1 if reverse else 0] = 0.0
        planes = (out.real, out.imag) if np.iscomplexobj(out) else (out,)
        for part, plane in zip(planes, acc[..., span]):
            if reverse:
                part[..., :-1] = plane[:, ::-1].transpose(0, 2, 1)
            else:
                part[..., 1:] = plane.transpose(0, 2, 1)
        outs.append(out)
    return outs


# ----------------------------------------------------------------------------
# finite-difference oracles


def _fd_interior(r: np.ndarray, blocks, dtype=float):
    """lil matrix (B m, B m) with the interior rows 1..m-2 of each block
    (p1, p0, ksq) of m unknowns: -(v'' + p1 v' + p0 v - ksq v) from 3-point
    stencils on the nodes r, with p1 and p0 at the interior nodes.  The
    caller writes the boundary, closure and coupling rows."""
    import scipy.sparse as sp

    m = r.size
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    denom = hm * hp * (hm + hp)
    # v' ~ a1 v_{i-1} + b1 v_i + c1 v_{i+1}
    a1 = -hp ** 2 / denom
    b1 = (hp ** 2 - hm ** 2) / denom
    c1 = hm ** 2 / denom
    # v'' ~ a2 v_{i-1} + b2 v_i + c2 v_{i+1}
    a2 = 2.0 * hp / denom
    b2 = -2.0 * (hm + hp) / denom
    c2 = 2.0 * hm / denom
    mat = sp.lil_matrix((len(blocks) * m,) * 2, dtype=dtype)
    for start, (p1, p0, ksq) in zip(range(0, len(blocks) * m, m), blocks):
        i = np.arange(start + 1, start + m - 1)
        mat[i, i - 1] = -(a2 + p1 * a1)
        mat[i, i] = -(b2 + p1 * b1) - p0 + ksq
        mat[i, i + 1] = -(c2 + p1 * c1)
    return mat


def _fd_solve(mat, rhs: np.ndarray, name: str) -> np.ndarray:
    """Sparse LU solve of an oracle system; a failed factorization or a
    non-finite solution is a NumericError."""
    import scipy.sparse.linalg as spla

    with np.errstate(all="ignore"):
        try:
            sol = spla.spsolve(mat.tocsr(), rhs)
        except Exception as exc:  # singular matrix => ill-posed parameters
            raise NumericError(f"{name} linear system is singular: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise NumericError(f"{name} produced non-finite values "
                           "(ill-posed parameter combination?)")
    return sol


def fd_bvp_solve(grid: RadialGrid, p1: Callable, p0: Callable, ksq: float,
                 rhs, bc_left: complex, decay_exponent: float) -> np.ndarray:
    """Second-order FD solution of -(v'' + p1 v' + p0 v - ksq v) = f.

    Dirichlet value at r = 1.  The outer closure comes from the decay class
    p: for ksq > 0 the Robin condition v' + (sqrt(ksq) + p/r) v = 0, and for
    ksq = 0 the annihilator (r d/dr + p)^2 v = 0, which is exact on both
    r^-p and r^-p log r asymptotics.  Independent of the Green's-function
    solvers (different discretization, different code path); used as the
    correctness oracle for all of them.
    """
    r = grid.nodes
    f = _sample(rhs, grid)
    block = (p1(r[1:-1]), p0(r[1:-1]), ksq)
    # complex when the data or a sampled coefficient is
    dtype = complex if any(map(np.iscomplexobj, (f, bc_left) + block)) else float
    mat = _fd_interior(r, [block], dtype)
    mat[0, 0] = 1.0
    b = f.astype(dtype)
    b[0], b[-1] = bc_left, 0.0

    # outer closure row from 5-point one-sided derivative stencils
    d1 = _local_weights(r[-5:], r[-1], 1)
    p = decay_exponent
    if ksq > 0:
        row = d1.copy()
        row[-1] += p / r[-1] + np.sqrt(ksq)
    else:
        d2 = _local_weights(r[-5:], r[-1], 2)
        row = r[-1] ** 2 * d2 + (2.0 * p + 1.0) * r[-1] * d1
        row[-1] += p * p
    mat[-1, -5:] = row
    return _fd_solve(mat, b, "FD oracle")


def fd_meridional_solve(grid: RadialGrid, k: int, nu: float, big_f,
                        g_r: complex, g_z: complex, decay_exponent: float):
    """Coupled second-order FD solve of the stream/vorticity system.

    Unknowns (phi, w) with
        -(phi'' + phi'/r - k^2 phi - phi/r^2) = w
        -(w'' + (1-nu)/r w' - ((1-nu)/r^2 + k^2) w) = F
    boundary rows -ik phi(1) = g_r, phi'(1) + phi(1) = g_z and Robin decay
    closures for both unknowns at r_max.  Returns (phi, w, v_r, v_z) arrays.
    """
    if k == 0:
        raise DomainError("coupled meridional oracle requires k != 0")
    r = grid.nodes
    m = r.size
    F = _sample(big_f, grid)
    ri = r[1:-1]
    kk = abs(k)

    # phi equations in rows 0..m-1, w equations in rows m..2m-1
    mat = _fd_interior(r, [(1.0 / ri, -(1.0 / ri ** 2), kk * kk),
                           ((1.0 - nu) / ri, -((1.0 - nu) / ri ** 2), kk * kk)])
    i = np.arange(1, m - 1)
    mat[i, m + i] = -1.0  # -w
    rhs = np.zeros(2 * m, dtype=complex)
    rhs[m + 1:-1] = F[1:-1]

    # boundary: phi(1) = -g_r/(ik) = i g_r / k
    mat[0, 0] = 1.0
    rhs[0] = g_r * 1j / k
    # boundary: phi'(1) + phi(1) = g_z (2nd-order one-sided)
    row = _local_weights(r[:3], r[0], 1)
    row[0] += 1.0
    mat[m, :3] = row
    rhs[m] = g_z

    row = _local_weights(r[-3:], r[-1], 1)
    row[-1] += decay_exponent / r[-1] + kk
    for end in (m, 2 * m):  # same Robin closure for phi and w
        mat[end - 1, end - 3:end] = row

    sol = _fd_solve(mat, rhs, "coupled FD oracle")
    phi, w = sol[:m], sol[m:]
    return phi, w, -1j * k * phi, grid.differentiate(phi, 1) + phi / r
