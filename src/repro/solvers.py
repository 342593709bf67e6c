"""Brent's root finder and Brent's bounded minimiser, in plain Python.

The cutoff engines and the distribution fits need exactly two scalar
numerical routines.  Both are ports of SciPy's implementations, written
so that every floating-point operation happens in the same order with
the same IEEE-754 rounding — the results are bit-identical to
``scipy.optimize.brentq`` and to ``scipy.optimize.minimize_scalar(...,
method="bounded")`` (``tests/test_solvers.py`` holds them to that).
Keeping them here means ``import repro`` never loads ``scipy.optimize``,
which pulls in ``scipy.linalg`` and ``scipy.fft`` and would cost more
start-up time than the rest of the package.

* :func:`brentq` follows SciPy's C ``brentq`` loop line for line
  (``scipy/optimize/Zeros/brentq.c``), including its sign test on
  ``signbit`` and its ``MIN`` macro.  Python raises on a zero divisor
  where C yields ``±inf``/``nan``, so the two divisions that can meet
  one go through :func:`_div`.
* :func:`minimize_bounded` follows ``_minimize_scalar_bounded`` of
  ``scipy/optimize/_optimize.py``.  Its ``np.sign(d) + (d == 0)`` is
  ``-1.0 if d < 0 else 1.0`` for the finite steps the loop takes (the
  loop never starts when a tolerance is NaN or infinite).

Portions derived from SciPy, Copyright (c) 2001-2002 Enthought, Inc.
and 2003-2024 SciPy Developers, BSD-3-Clause licensed.

This module imports only the standard library.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable

__all__ = ["brentq", "minimize_bounded"]

#: SciPy's default tolerances for ``brentq``.
_XTOL = 2e-12
_RTOL = 4 * 2.220446049250313e-16  # 4 · machine epsilon
_MAXITER = 100


def _div(num: float, den: float) -> float:
    """``num / den`` with C semantics for a zero divisor."""
    if den == 0.0:
        if num == 0.0 or num != num:
            return math.nan
        neg = (math.copysign(1.0, num) < 0.0) != (math.copysign(1.0, den) < 0.0)
        return -math.inf if neg else math.inf
    return num / den


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0.0


def brentq(
    f: Callable[..., Any],
    a: float,
    b: float,
    args: Any = (),
    xtol: float = _XTOL,
    rtol: float = _RTOL,
    maxiter: int = _MAXITER,
) -> float:
    """A root of ``f`` in the sign-changing bracket ``[a, b]``.

    Same arguments, result and exceptions as ``scipy.optimize.brentq``
    without ``full_output``/``disp``: :class:`ValueError` if ``f(a)``
    and ``f(b)`` have the same sign, if ``f`` returns NaN, or for a bad
    tolerance; :class:`RuntimeError` if ``maxiter`` iterations do not
    converge.
    """
    if not isinstance(args, tuple):
        args = (args,)
    maxiter = operator.index(maxiter)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")
    xtol, rtol = float(xtol), float(rtol)

    def call(x: float) -> float:
        fx = float(f(x, *args))
        if fx != fx:
            raise ValueError(
                f"The function value at x={x} is NaN; solver cannot continue."
            )
        return fx

    xpre = float(a)
    xcur = float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre

            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(
                    -fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre)
                )
            lim = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < lim else lim):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta

        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def minimize_bounded(
    func: Callable[..., Any],
    bounds: tuple[float, float],
    args: tuple[Any, ...] = (),
    xatol: float = 1e-5,
    maxiter: int = 500,
) -> tuple[float, float]:
    """Brent's bounded minimisation of a scalar function: ``(x, f(x))``.

    The ``x`` and ``fun`` that ``scipy.optimize.minimize_scalar(func,
    bounds=bounds, args=args, method="bounded", options={"xatol":
    xatol, "maxiter": maxiter})`` returns, as floats.  Objective values
    are coerced with ``float()``.
    """
    if len(bounds) != 2:
        raise ValueError("bounds must have two elements.")
    x1, x2 = bounds
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if x1 > x2:
        raise ValueError("The lower bound exceeds the upper bound.")

    a, b = float(x1), float(x2)
    xatol = float(xatol)
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = float(func(x, *args))
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # Check for parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (-1.0 if xm - xf < 0 else 1.0)
            else:  # do a golden-section step
                golden = True

        if golden:  # do a golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = _GOLDEN_MEAN * e

        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = float(func(x, *args))
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxiter:
            break

    return xf, fx
