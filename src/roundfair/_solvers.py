"""A port of ``scipy.optimize.brentq``, the one scipy root finder the
worst-case analysis uses.

``brentq`` is scipy's ``brentq.c`` on Python floats.  It performs the same
float operations in the same order as the original, so it returns
bit-identical results; importing ``scipy.optimize`` costs more than the rest
of a CLI call, and ``guard_ratio_ceiling`` needs nothing else of it.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

# brentq's relative tolerance and iteration budget.
_RTOL, _MAXITER = 4 * sys.float_info.epsilon, 100


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
