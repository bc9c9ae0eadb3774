"""Ports of the two ``scipy.optimize`` routines the worst-case analysis uses.

``nelder_mead`` is scipy's ``_minimize_neldermead`` (the non-adaptive
simplex, without bounds or callbacks) and ``brentq`` is scipy's ``brentq.c``.
Each performs the same float operations in the same order as the original,
so both return bit-identical results; importing ``scipy.optimize`` costs more
than the rest of a CLI call, and these two routines are all the analysis
commands need of it.
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
    keeps the simplex as it was.  ``func`` receives a copy of each point.
    """
    x0 = np.asarray(x0, dtype=float).flatten()
    N = len(x0)
    sim = np.empty((N + 1, N))
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        if y[k] != 0:
            y[k] = (1 + _NONZDELT) * y[k]
        else:
            y[k] = _ZDELT
        sim[k + 1] = y

    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return func(np.copy(x))

    fsim = np.full((N + 1,), np.inf)
    try:
        for k in range(N + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    # scipy sorts the initial simplex twice; both are kept so ties order alike.
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            if (
                np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol
            ):
                break
            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = (1 + _RHO) * xbar - _RHO * sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = (1 + _RHO * _CHI) * xbar - _RHO * _CHI * sim[-1]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = (1 + _PSI * _RHO) * xbar - _PSI * _RHO * sim[-1]
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:  # inside contraction
                    xcc = (1 - _PSI) * xbar + _PSI * sim[-1]
                    fxcc = f(xcc)
                    shrink = not fxcc < fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:
                    for j in range(1, N + 1):
                        sim[j] = sim[0] + _SIGMA * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            iterations += 1
        except _BudgetSpent:
            pass
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    return SimplexResult(x=sim[0], fun=float(np.min(fsim)), nfev=nfev, nit=iterations)


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
