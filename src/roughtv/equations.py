"""Picard solvers for y(t) = y0 + int_a^t F(y(s)) dx(s) with rough drivers.

The driver x is a continuous path with finite p-TV seminorm, 1 < p < 2.  For
a field with an alpha-Lipschitz quotient (order "one_plus_alpha") the
iteration contracts on windows certified by the two explicit inequalities
from the uniqueness proof; for a bare alpha-Lipschitz field (order "alpha",
p - 1 < alpha < 1) each window's seminorm is at most the eps of the
a-priori estimate, and the radius R = A R^alpha + B bounds the solution's
norm.  One galloping search over the window end finds the windows of both.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadAlphaError,
    BadExponentError,
    BadParameterError,
    BlowupSuspectedError,
    NoConvergenceError,
    NonFiniteValueError,
    NoSplittingError,
)
from .integrals import d_e_constants
from .kernels import window_extrema
from .norms import extrema_seminorm, p_tv_seminorm
from .paths import Mode, SampledPath
from .reports import BoundReport, bound_report

BLOWUP_GUARD = 1e12
_F64 = np.dtype(np.float64)  # a dtype compares faster than the scalar type np.float64


@dataclass(frozen=True)
class Quotient:
    """The declared constants of G, F(y) - F(x) = G(y, x)(y - x): K_G and |G|_inf."""

    lipschitz: float
    sup_bound: float


@dataclass(frozen=True)
class LipschitzField:
    """Scalar field F with declared Hoelder regularity.

    order "alpha": F is globally alpha-Lipschitz with constant `lipschitz`.
    order "one_plus_alpha": F is globally 1-Lipschitz (constant `lipschitz`)
    and its quotient G is alpha-Lipschitz; the quotient is then mandatory,
    and so is `sup_bound` (a bound on |F|) unless G's Lipschitz constant is
    0, since the contraction windows are certified from these constants.
    `func` must accept numpy arrays (any ufunc-style callable does).
    """

    func: object
    alpha: float
    order: str
    lipschitz: float
    quotient: Quotient = None
    sup_bound: float = None

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise BadAlphaError("alpha must be in (0; 1]")
        if self.order not in ("alpha", "one_plus_alpha"):
            raise BadParameterError(f"unknown order {self.order!r}")
        if self.order == "one_plus_alpha" and self.quotient is None:
            raise BadParameterError("order one_plus_alpha requires a quotient")
        constants = {"lipschitz": self.lipschitz}
        if self.sup_bound is not None:
            constants["sup_bound"] = self.sup_bound
        if self.quotient is not None:
            constants["quotient.lipschitz"] = self.quotient.lipschitz
            constants["quotient.sup_bound"] = self.quotient.sup_bound
        for name, value in constants.items():
            # the windows rest on these: a negative, NaN or inf one certifies wrongly
            if value is None or not 0.0 <= value < math.inf:
                raise BadParameterError(f"{name} must be finite and >= 0")
        if (self.order == "one_plus_alpha" and self.quotient.lipschitz > 0
                and self.sup_bound is None):
            raise BadParameterError(
                "order one_plus_alpha with a non-constant quotient requires sup_bound")

    @property
    def f0(self):
        return float(np.abs(self(np.zeros(1)))[0])

    def __call__(self, values):
        """F at every value, as a float64 array of the input's shape.

        A float64 array of that shape that owns its data and is not the
        input is returned as is.  Anything else (a scalar, another dtype,
        the input itself or a view) becomes a read-only broadcast float64
        view, so the caller's own array is never handed back writable.
        """
        arr = np.asarray(values, dtype=np.float64)
        return _field_values(self.func(arr), arr)

    def composition_alpha(self):
        """The exponent at which F composes: alpha, or 1 for smooth orders."""
        return 1.0 if self.order == "one_plus_alpha" else self.alpha


def _field_values(out, arr):
    """`func`'s output `out` at the float64 array `arr`, by `__call__`'s rule."""
    if (type(out) is np.ndarray and out.dtype == np.float64
            and out.shape == arr.shape and out.base is None and out is not arr):
        return out
    return np.broadcast_to(np.asarray(out, dtype=np.float64), arr.shape)


_FIELDS = {
    "identity": LipschitzField(
        func=lambda u: np.array(u, dtype=np.float64),
        alpha=1.0, order="one_plus_alpha", lipschitz=1.0,
        quotient=Quotient(lipschitz=0.0, sup_bound=1.0),
    ),
    "sin": LipschitzField(
        func=np.sin, alpha=1.0, order="one_plus_alpha", lipschitz=1.0,
        quotient=Quotient(lipschitz=1.0, sup_bound=1.0), sup_bound=1.0,
    ),
    "sqrt-abs": LipschitzField(
        func=lambda u: np.sqrt(np.abs(np.asarray(u, dtype=np.float64))),
        alpha=0.5, order="alpha", lipschitz=1.0,
    ),
    "constant": LipschitzField(
        func=lambda u: np.ones_like(np.asarray(u, dtype=np.float64)),
        alpha=1.0, order="one_plus_alpha", lipschitz=0.0,
        quotient=Quotient(lipschitz=0.0, sup_bound=0.0), sup_bound=1.0,
    ),
    "zero": LipschitzField(
        func=lambda u: np.zeros_like(np.asarray(u, dtype=np.float64)),
        alpha=1.0, order="one_plus_alpha", lipschitz=0.0,
        quotient=Quotient(lipschitz=0.0, sup_bound=0.0), sup_bound=0.0,
    ),
}


def field_catalog():
    """The built-in fields selectable by name (`solve --field`, tests).

    A copy of one dict built at import, so a caller may change its copy.
    """
    return dict(_FIELDS)


def fixed_point_radius(A, B, alpha) -> float:
    """Least positive solution of R = A R^alpha + B (alpha < 1).

    h(R) = R - A R^alpha - B is convex with h(0) = -B, so its positive root is
    unique and >= max(B, A^(1/(1-alpha))), the B = 0 closed form.  Doubling
    brackets it; bisection returns the upper of two adjacent floats around it.
    """
    A = float(A)
    B = float(B)
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise BadAlphaError("need 0 < alpha < 1 for an a-priori radius")
    if not (A >= 0 and B >= 0):  # NaN too
        raise BadParameterError("A and B must be >= 0")
    if A == 0.0:
        return B
    try:
        lo = hi = max(A ** (1.0 / (1.0 - alpha)), B)
    except OverflowError:  # a Python float power beyond float64
        lo = hi = math.inf
    if B == 0.0 and hi < math.inf:
        return hi  # the closed form
    top = float(np.finfo(np.float64).max)
    while not hi - A * hi ** alpha - B >= 0.0:  # nan from an inf start too
        if hi >= top:
            raise NonFiniteValueError("the a-priori radius overflows float64")
        lo, hi = hi, min(2.0 * hi, top)
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        if mid - A * mid ** alpha - B < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def _window_test(field: LipschitzField, p):
    """(accept, eps): the test of a window's seminorm s, fixed once per solve.

    Order one_plus_alpha: the two contraction inequalities of the
    uniqueness proof, from the field's declared constants,
    E_{p,p} K_F s <= 1/2 and 4 E_{p/alpha,p} (|G|_inf + 4 K_G R) s < 1 with
    R = 2 |F|_inf s.  |F|_inf enters only through 4 K_G R, so a quotient
    with K_G = 0 needs no sup_bound: |F|_inf is taken as 0 there.  eps is
    None.
    Order alpha, which needs p - 1 < alpha: s <= eps = 1/(2 (E + 1) K),
    E = E_{p/alpha,p}.  K = 0 makes F constant, eps infinite and the whole
    driver one window.
    """
    if field.order == "one_plus_alpha":
        e_pp = d_e_constants(p, p)[1]
        e_pa = d_e_constants(p / field.alpha, p)[1]
        k_f = field.lipschitz
        g_sup = field.quotient.sup_bound
        k_g = field.quotient.lipschitz
        f_sup = field.sup_bound if k_g > 0 else 0.0

        def contracts(s):
            radius = 2.0 * f_sup * s
            return (e_pp * k_f * s <= 0.5) and (4.0 * e_pa * (g_sup + 4.0 * k_g * radius) * s < 1.0)

        return contracts, None
    if not p - 1.0 < field.alpha:
        raise BadAlphaError("order alpha solving needs p - 1 < alpha")
    k = field.lipschitz
    eps = 0.5 / ((d_e_constants(p / field.alpha, p)[1] + 1.0) * k) if k > 0 else math.inf
    return (lambda s: s <= eps), eps


def _window_end(extrema, last, pos, p, accept, guess=1):
    """(end, certified): the last certified end of a window from sample pos.

    `accept` tests a window's seminorm: the contraction inequalities, or
    the order-alpha bound seminorm <= eps.  Being certified is monotone in
    the end, since the seminorm cannot fall when the window grows, so a
    galloping search finds the same end as any other.  After the one-step
    window it probes pos + guess (capped at `last`; a solve passes the
    previous window's length).  From lo, that probe if it passed and
    pos + 1 otherwise, it probes lo + 1, lo + 2, lo + 4, ... up to the
    first failure, capped at `last` and kept below a failed guess, then
    bisects between the last success and the first failure.  A window of
    L steps costs at most 2 ceil(log2(L + 1)) + 2 seminorms, whatever the
    length of the driver, and a window as long as the guess costs 3.
    (pos + 1, False) when even the one-step window fails.
    """
    def certified(idx):
        return accept(extrema_seminorm(extrema(pos, idx), p))

    lo = pos + 1
    if not certified(lo):
        return lo, False
    hi = last + 1  # the first failure seen, or past the end
    seed = min(pos + guess, last)
    if seed > lo:
        if certified(seed):
            lo = seed
        else:
            hi = seed
    base = lo
    step = 1
    while hi - lo > 1:
        probe = min(base + step, hi - 1)
        if not certified(probe):
            hi = probe
            break
        lo = probe
        step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if certified(mid):
            lo = mid
        else:
            hi = mid
    return lo, True


@dataclass(frozen=True)
class OdeSolution:
    path: SampledPath
    iterations: tuple
    windows: tuple
    converged: bool
    residual: float


def _cumulative_trapezoid(f_vals, dx, y_start):
    """y_start + int F dx by the trapezoid rule, dx the driver's increments."""
    cells = 0.5 * (f_vals[:-1] + f_vals[1:]) * dx
    z = np.empty(f_vals.size, dtype=np.float64)
    z[0] = 0.0
    cells.cumsum(out=z[1:])
    z += y_start
    return z


def _iterate_window(field: LipschitzField, t, xv, y_start, tol, max_iter, damped,
                    guard=BLOWUP_GUARD):
    """Picard iterates z = y_start + int F(y) dx on one window, on arrays, to tol.

    (z, iterations) at the first iterate within tol of its predecessor in
    every sample; BlowupSuspectedError at the first sample whose absolute
    value exceeds `guard`, NoConvergenceError after max_iter iterates.  An
    overflow gives inf, and inf - inf NaN, without a warning: the guard
    reports an inf, and a NaN fails the tolerance test.  A solve sends only
    its windows of more than one step here (`_iterate_step` takes the
    others); a one-step window gives the same bits on either route.
    """
    dx = xv[1:] - xv[:-1]
    y = np.empty(t.size, dtype=np.float64)
    y.fill(y_start)
    with np.errstate(over="ignore", invalid="ignore"):  # once a window, not once an iterate
        for it in range(1, max_iter + 1):
            z = _cumulative_trapezoid(field(y), dx, y_start)
            bad = np.abs(z) > guard
            if bad.any():
                raise BlowupSuspectedError(
                    "solution exceeded the overflow guard",
                    time=float(t[int(bad.argmax())]),
                )
            change = float(np.abs(z - y).max())
            if change < tol:
                return z, it
            y = z if not damped else 0.5 * (y + z)
    raise NoConvergenceError(f"window iteration did not reach {tol} in {max_iter} steps")


def _iterate_step(field, t1, x0, x1, y_start, tol, max_iter, damped, guard):
    """`_iterate_window` on the one-step window [t0; t1], on Python floats.

    The driver's two values x0, x1 and y_start are floats, and so are the
    returned (z0, z1, iterations): NumPy's fixed cost per call dwarfs the
    arithmetic of two samples, and nearly every window of a rough driver
    is one step.  F is evaluated on a new float64 pair of the current
    iterate at every iterate (a field may keep its input).  Its output is
    listed as it is when it is a float64 array of shape (2,), whatever it
    aliases, and coerced by `LipschitzField.__call__`'s rule
    (`_field_values`) first otherwise.  z0 = 0.0 + y_start is the running
    sum's first sample, and z1 = y_start + the one cell is its second,
    since -0.0 + c is c for every float c: the cell, the sum and both tests
    are the array loop's float operations in its order, so both routes give
    the same bits.  The guard is tested on z1 only (z0 is the solve's
    initial value or a sample that passed it), and the tolerance on both; a
    NaN fails that test, as it fails the array loop's max.
    """
    func = field.func
    array, ndarray = np.array, np.ndarray  # looked up once a window, not once an iterate
    dx = x1 - x0
    z0 = 0.0 + y_start
    y0 = y1 = y_start
    for it in range(1, max_iter + 1):
        arr = array((y0, y1))
        out = func(arr)
        if not (type(out) is ndarray and out.dtype == _F64 and out.shape == (2,)):
            out = _field_values(out, arr)
        f0, f1 = out.tolist()
        z1 = y_start + 0.5 * (f0 + f1) * dx
        if abs(z1) > guard:
            raise BlowupSuspectedError("solution exceeded the overflow guard", time=t1)
        if abs(z0 - y0) < tol and abs(z1 - y1) < tol:
            return z0, z1, it
        if damped:
            y0, y1 = 0.5 * (y0 + z0), 0.5 * (y1 + z1)
        else:
            y0, y1 = z0, z1
    raise NoConvergenceError(f"window iteration did not reach {tol} in {max_iter} steps")


def picard_solve(x: SampledPath, field: LipschitzField, y0, p, tol,
                 max_iter=80) -> OdeSolution:
    """Solve y = y0 + int F(y) dx window by window on x's own grid.

    Each window is the longest one from the previous window's end that
    passes a test of its seminorm, found by the galloping search
    `_window_end` over one `kernels.window_extrema` of the driver, which
    first tries the previous window's length (on a uniform driver, three
    seminorms a window).
    `_window_test` fixes the test once per solve from the field's declared
    constants: the two contraction inequalities (order one_plus_alpha), or
    seminorm <= eps = 1/(2 (E + 1) K), E = E_{p/alpha,p} (order alpha,
    which also requires p - 1 < alpha).

    The order-alpha test is the a-priori estimate of the existence proof,
    read on one window I = [s; t].  The Loeve-Young inequality and the
    composition bound |F(y)|_{p/alpha-TV,I} <= K |y|_{p-TV,I}^alpha give
    every solution |y|_{p-TV,I} <= (|F(y(s))| + E K |y|_{p-TV,I}^alpha)
    |x|_{p-TV,I}, so |x|_{p-TV,I} <= eps bounds the coefficient
    (E + 1) K |x|_{p-TV,I} of the a-priori bound on I by 1/2.  The estimate
    reads only I's own seminorm: it never asks the windows to be of equal
    length, so the longest passing window from each start serves as well as
    a uniform mesh, and takes fewer windows.  NoSplittingError when even a
    one-step window fails.  (`solution_radius` bounds the whole solution
    from the whole driver's seminorm, whatever the windows.)

    An order one_plus_alpha solve does not stop there: when even the
    one-step window fails the contraction test, it iterates that window
    uncertified.  `converged` then means only residual < tol, not that every
    window was a certified contraction.

    Each window iterates the integral map with the trapezoid rule (both
    paths piecewise linear) and chains its terminal value into the next
    window: a one-step window on Python floats from end to end
    (`_iterate_step` takes the driver's two values by `.item` and gives
    the two samples it writes as floats), a longer one on arrays
    (`_iterate_window`).  For an order-alpha field a damped retry
    y <- (y + Ty)/2 of either route covers the nonsmooth fields before
    giving up.  A window is stopped as a suspected blow-up once a
    sample exceeds BLOWUP_GUARD * max(1, |y0|) in absolute value, so the
    guard scales with the initial value: a constant solution y = y0 never
    trips it.  The guard is capped at the largest float, so the first
    sample to overflow to inf trips it whatever y0.
    """
    if x.mode is not Mode.LINEAR:
        raise BadParameterError("driver must be piecewise linear (continuous)")
    p = float(p)
    if not 1.0 < p < 2.0:
        raise BadExponentError("need p in (1; 2)")
    tol = float(tol)
    if not 0.0 < tol < math.inf:
        raise BadParameterError("tol must be finite and > 0")
    y0 = float(y0)
    if not math.isfinite(y0):
        raise BadParameterError("y0 must be finite")
    # capped, so that an iterate which overflows to inf still trips it
    guard = min(BLOWUP_GUARD * max(1.0, abs(y0)), sys.float_info.max)
    times, values = x.times, x.values
    last = times.size - 1

    accept, eps = _window_test(field, p)
    extrema = window_extrema(values)
    boundaries = [0]
    guess = 1
    while boundaries[-1] < last:
        pos = boundaries[-1]
        end, certified = _window_end(extrema, last, pos, p, accept, guess)
        if not certified and field.order == "alpha":
            raise NoSplittingError(f"driver admits no window with seminorm below {eps}")
        boundaries.append(end)
        guess = end - pos

    n_windows = len(boundaries) - 1
    window_tol = tol / (2.0 * max(1, n_windows))
    full_y = np.empty(times.size, dtype=np.float64)
    # window 0 writes this same value; a one-sample driver runs no window
    full_y[0] = 0.0 + y0
    iterations = []
    y_start = y0
    for w in range(n_windows):
        i0, i1 = boundaries[w], boundaries[w + 1]
        # an order-alpha window that does not settle is retried damped
        for damped in (False, True):
            try:
                if i1 - i0 == 1:
                    z0, y_end, its = _iterate_step(
                        field, times.item(i1), values.item(i0), values.item(i1), y_start,
                        window_tol, max_iter, damped, guard)
                    full_y[i0] = z0
                    full_y[i1] = y_end
                else:
                    yw, its = _iterate_window(field, times[i0:i1 + 1], values[i0:i1 + 1],
                                              y_start, window_tol, max_iter, damped, guard)
                    full_y[i0:i1 + 1] = yw
                    y_end = float(yw[-1])
                break
            except NoConvergenceError:
                if damped or field.order != "alpha":
                    raise
        iterations.append(its)
        y_start = y_end
    solution = SampledPath(times, full_y, Mode.LINEAR)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as inf or NaN
        residual = float(np.abs(
            full_y - _cumulative_trapezoid(field(full_y), values[1:] - values[:-1], y0)
        ).max())
    return OdeSolution(
        path=solution,
        iterations=tuple(iterations),
        windows=tuple(times[boundaries].tolist()),
        converged=residual < tol,
        residual=residual,
    )


def solution_radius(x: SampledPath, field: LipschitzField, y0, p) -> float:
    """The a-priori norm radius R = A R^alpha + B for the order-alpha case."""
    if field.order != "alpha":
        raise BadParameterError("the a-priori radius applies to order alpha fields")
    e_pa = d_e_constants(p / field.alpha, p)[1]
    x_norm = p_tv_seminorm(x, p)
    a = (e_pa + 1.0) * field.lipschitz * x_norm
    b = abs(float(y0)) + field.f0 * x_norm
    return fixed_point_radius(a, b, field.alpha)


def composition_norm_check(f: SampledPath, field: LipschitzField, p) -> BoundReport:
    """|F(f)|_{p/alpha-TV} <= K |f|_{p-TV}^alpha."""
    p = float(p)
    if not p >= 1:
        raise BadExponentError("needs p >= 1")
    alpha = field.composition_alpha()
    composed = SampledPath(f.times, field(f.values), f.mode)
    lhs = p_tv_seminorm(composed, p / alpha)
    rhs = field.lipschitz * p_tv_seminorm(f, p) ** alpha
    return bound_report(lhs, rhs, field.lipschitz, "composition-norm",
                        {"alpha": alpha})
