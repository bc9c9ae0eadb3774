"""Ports of the two ``scipy.optimize`` routines the worst-case analysis uses.

``nelder_mead`` is scipy's ``_minimize_neldermead`` (the non-adaptive
simplex, without bounds or callbacks) and ``brentq`` is scipy's ``brentq.c``.
Each performs the same float operations in the same order as the original,
so both return bit-identical results; importing ``scipy.optimize`` costs more
than the rest of a CLI call, and these two routines are all the analysis
commands need of it.

Both run on Python floats.  ``nelder_mead`` keeps its simplex as lists: the
refines the package runs have one or two coordinates, where numpy's fixed
cost per call on 1- and 2-element arrays outweighs the arithmetic.  The
objective still receives each point as a fresh float64 array.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

import numpy as np

# Nelder-Mead coefficients: reflection, expansion, contraction, shrink.
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
# Initial simplex: each vertex moves one coordinate by 5%, or to 0.00025 from 0.
_NONZDELT, _ZDELT = 0.05, 0.00025
# brentq's relative tolerance and iteration budget.
_RTOL, _MAXITER = 4 * sys.float_info.epsilon, 100


class _BudgetSpent(Exception):
    """Raised by the counting wrapper once ``maxfev`` evaluations are spent."""


class SimplexResult(NamedTuple):
    """The best vertex, its value, and the evaluations and iterations spent."""

    x: np.ndarray
    fun: float
    nfev: int
    nit: int


def nelder_mead(
    func: Callable[[np.ndarray], float],
    x0,
    *,
    xatol: float,
    fatol: float,
    maxiter: int,
    maxfev: int,
) -> SimplexResult:
    """Minimize ``func`` from ``x0`` with the Nelder-Mead simplex.

    Stops when every vertex lies within ``xatol`` of the best one and every
    value within ``fatol`` of its value, or when ``maxiter`` iterations or
    ``maxfev`` evaluations are spent; an iteration cut short by the budget
    keeps the simplex as it was.  The simplex and its values are Python
    floats, updated element by element with scipy's expressions in scipy's
    order; ``func`` still receives a fresh float64 array for each point, and
    the returned ``x`` is one.
    """
    x0 = np.asarray(x0, dtype=float).flatten().tolist()
    N = len(x0)
    sim = [x0]
    for k in range(N):
        y = list(x0)
        if y[k] != 0:
            y[k] = (1 + _NONZDELT) * y[k]
        else:
            y[k] = _ZDELT
        sim.append(y)

    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return float(func(np.array(x)))

    fsim = [math.inf] * (N + 1)
    try:
        for k in range(N + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    # scipy sorts the initial simplex twice; both are kept so ties order alike.
    for _ in range(2):
        sim, fsim = _ranked(sim, fsim)

    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            best, worst = sim[0], sim[-1]
            # A NaN fails these tests as it fails scipy's np.max(...) <= tol.
            close = all(abs(c - b) <= xatol for v in sim[1:] for c, b in zip(v, best))
            if close and all(abs(fsim[0] - fv) <= fatol for fv in fsim[1:]):
                break
            # np.add.reduce starts from +0.0 and adds the rows in order; the
            # builtin sum may compensate, so it is not used.
            total = [0.0] * N
            for v in sim[:-1]:
                total = [t + c for t, c in zip(total, v)]
            xbar = [t / N for t in total]
            xr = [(1 + _RHO) * c - _RHO * w for c, w in zip(xbar, worst)]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = [(1 + _RHO * _CHI) * c - _RHO * _CHI * w for c, w in zip(xbar, worst)]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = [(1 + _PSI * _RHO) * c - _PSI * _RHO * w for c, w in zip(xbar, worst)]
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:  # inside contraction
                    xcc = [(1 - _PSI) * c + _PSI * w for c, w in zip(xbar, worst)]
                    fxcc = f(xcc)
                    shrink = not fxcc < fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:
                    for j in range(1, N + 1):
                        sim[j] = [b + _SIGMA * (c - b) for b, c in zip(best, sim[j])]
                        fsim[j] = f(sim[j])
            iterations += 1
        except _BudgetSpent:
            pass
        sim, fsim = _ranked(sim, fsim)

    # np.min, which scipy reports, is NaN if any value is; NaN sorts last.
    fun = fsim[0] if fsim[-1] == fsim[-1] else math.nan
    return SimplexResult(x=np.array(sim[0]), fun=fun, nfev=nfev, nit=iterations)


def _ranked(sim: list, fsim: list) -> tuple[list, list]:
    """The vertices and values in ``np.argsort``'s order of the values.

    Up to three values (one- and two-dimensional searches) that order is
    ascending with NaN last and ties kept in place, and a Python sort gives
    it.  Among four or more, numpy's vectorized sort may swap tied values, so
    numpy sorts them.
    """
    if len(fsim) <= 3:
        order = sorted(range(len(fsim)), key=lambda k: (fsim[k] != fsim[k], fsim[k]))
    else:
        order = np.argsort(fsim).tolist()
    return [sim[k] for k in order], [fsim[k] for k in order]


def brentq(f: Callable[[float], float], a: float, b: float, *, xtol: float) -> float:
    """A root of ``f`` in the bracket [a, b] by Brent's method.

    Returns an end whose value is exactly zero; raises ValueError when the
    ends' values have the same sign or ``f`` gives NaN, and RuntimeError
    when 100 iterations do not bring the bracket within ``xtol + 4 eps |x|``
    (scipy's default ``rtol`` and ``maxiter``).
    """

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations, value is {xcur}")
