"""Standard-library ports of the four SciPy routines the package needs.

The cutoff engines and the distribution fits need two scalar numerical
routines, Brent's root finder and Brent's bounded minimiser, and the
lognormal workloads (c90, j90, ctc) need the standard normal CDF and
its inverse.  All four are ports of SciPy's implementations, written so
that every floating-point operation happens in the same order with the
same IEEE-754 rounding — the results are bit-identical to
``scipy.optimize.brentq``, to ``scipy.optimize.minimize_scalar(...,
method="bounded")`` and to ``scipy.special.ndtr``/``ndtri``
(``tests/test_solvers.py`` holds them to that).  Keeping them here means
``import repro`` never loads ``scipy.optimize``, which pulls in
``scipy.linalg`` and ``scipy.fft``, and a lognormal SITA fit never loads
``scipy.special``; either would cost more start-up time than the rest
of the package.

* :func:`brentq` follows SciPy's C ``brentq`` loop line for line
  (``scipy/optimize/Zeros/brentq.c``), including its sign test on
  ``signbit`` and its ``MIN`` macro.  Python raises on a zero divisor
  where C yields ``±inf``/``nan``, so the two divisions that can meet
  one go through :func:`_div`.
* :func:`minimize_bounded` follows ``_minimize_scalar_bounded`` of
  ``scipy/optimize/_optimize.py``.  Its ``np.sign(d) + (d == 0)`` is
  ``-1.0 if d < 0 else 1.0`` for the finite steps the loop takes (the
  loop never starts when a tolerance is NaN or infinite).
* :func:`ndtr` and :func:`ndtri` follow the Cephes ``ndtr``/``erf``/
  ``erfc`` and ``ndtri`` that SciPy ships: the same coefficient tables,
  the same ``polevl``/``p1evl`` Horner order and the same branch
  thresholds, with ``math.exp``/``log``/``sqrt`` for the C library's.

Portions derived from SciPy, Copyright (c) 2001-2002 Enthought, Inc.
and 2003-2024 SciPy Developers, BSD-3-Clause licensed.  The normal
distribution routines derive from the Cephes Math Library, Copyright
1984-2000 Stephen L. Moshier, as distributed with SciPy under its
BSD-3-Clause licence.

This module imports only the standard library.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable

__all__ = ["brentq", "minimize_bounded", "ndtr", "ndtri"]

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


# ----------------------------------------------------------------------
# the standard normal CDF and its inverse (Cephes)
# ----------------------------------------------------------------------


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Cephes ``polevl``: Horner's rule from the leading coefficient."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple[float, ...]) -> float:
    """Cephes ``p1evl``: :func:`_polevl` with an implicit leading 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_SQRT1_2 = 7.07106781186547524401e-1

# erfc(x) = exp(-x²) P(x)/Q(x), 1 <= x < 8
_ERFC_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
# erfc(x) = exp(-x²) R(x)/S(x), x >= 8
_ERFC_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
# erf(x) = x T(x²)/U(x²), |x| <= 1
_ERF_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)


# Cephes' NaN checks in ``ndtr``, ``erf`` and ``erfc`` and its ``y == 0.0``
# underflow exit in ``erfc`` only raise ``sf_error``; the values they
# return are what the arithmetic below gives anyway, so they are left out.


def _erf(x: float) -> float:
    if x < 0.0:
        return -_erf(-x)
    if abs(x) > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc(a: float) -> float:
    x = -a if a < 0.0 else a
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        p = _polevl(x, _ERFC_P)
        q = _p1evl(x, _ERFC_Q)
    else:
        p = _polevl(x, _ERFC_R)
        q = _p1evl(x, _ERFC_S)
    y = (z * p) / q
    if a < 0:
        y = 2.0 - y
    return y


def ndtr(a: float) -> float:
    """The standard normal CDF; ``scipy.special.ndtr`` for a float."""
    x = float(a) * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    if x > 0:
        y = 1.0 - y
    return y


_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)

# ndtri for 0 <= |y - 0.5| <= 3/8
_NDTRI_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# z = sqrt(-2 log y) in [2, 8): y in (exp(-32), exp(-2)]
_NDTRI_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# z = sqrt(-2 log y) in [8, 64): y in (exp(-2048), exp(-32)]
_NDTRI_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def ndtri(y0: float) -> float:
    """The standard normal quantile; ``scipy.special.ndtri`` for a float.

    ``-inf`` at 0, ``inf`` at 1, NaN outside ``[0, 1]`` and for NaN.
    """
    y0 = float(y0)
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2)
    x = x0 - x1
    return -x if negate else x
