"""Continued fractions of sqrt(D): fundamental units and small norms.

One pass through the period of sqrt(D) yields both the fundamental
solution of x^2 - D y^2 = +-1 (the unit of Z[sqrt(D)]) and, as a side
product, every value N with |N| < sqrt(D) representable as x^2 - D y^2:
the convergents p_k/q_k satisfy p_k^2 - D q_k^2 = (-1)^(k+1) Q_(k+1) with
Q running over the period's partial denominators.  That classical fact
replaces an unbounded search for prime factorizations a^2 - D b^2 = +-p.
All arithmetic is exact; only the regulator is floating point.
"""

from __future__ import annotations

import math

import mpmath


class PellError(ValueError):
    pass


class CFData:
    """Everything the sparse constructions need from one period scan.

    unit = (x, y): fundamental solution of x^2 - D y^2 = unit_norm with
    unit_norm in {1, -1}.  norms maps each |N| < sqrt(D) seen along the
    period to one exact representation (a, b, sign) with a^2 - D b^2 =
    sign * |N|, first occurrence kept for determinism.
    """

    def __init__(self, D):
        a0 = math.isqrt(D)
        if a0 * a0 == D:
            raise PellError(f"{D} is a perfect square")
        self.D = D
        self.norms = {}
        m, d, a = 0, 1, a0
        p_prev, p_cur = 1, a0          # p_(-1), p_0
        q_prev, q_cur = 0, 1
        k = 0                          # index of the current convergent
        sign = -1                      # p_0^2 - D q_0^2 = -Q_1
        while True:
            m = d * a - m
            d = (D - m * m) // d
            a = (a0 + m) // d
            # p_k^2 - D q_k^2 = (-1)^(k+1) Q_(k+1) = sign * d ... before stepping
            if d not in self.norms:
                self.norms[d] = (p_cur, q_cur, sign)
            if d == 1:
                self.unit = (p_cur, q_cur)
                self.unit_norm = sign
                break
            p_prev, p_cur = p_cur, a * p_cur + p_prev
            q_prev, q_cur = q_cur, a * q_cur + q_prev
            sign = -sign
            k += 1
        self.period = k + 1

    def represent(self, n):
        """(a, b) with |a^2 - D b^2| = n, or None.  Complete for n < sqrt(D)."""
        hit = self.norms.get(n)
        if hit is None:
            return None
        return hit[0], hit[1]

    def checked_unit(self):
        """(x, y, norm) of the unit, verified: x^2 - D y^2 == norm."""
        x, y = self.unit
        if x * x - self.D * y * y != self.unit_norm:
            raise PellError("unit verification failed")  # pragma: no cover
        return x, y, self.unit_norm


def fundamental_unit(D):
    """(x, y, norm) with x + y sqrt(D) the fundamental unit of Z[sqrt(D)]."""
    return CFData(D).checked_unit()


def regulator(D, unit=None, prec=80):
    """log(x + y sqrt(D)) of the fundamental unit, to prec working bits."""
    if unit is None:
        x, y, _ = fundamental_unit(D)
    else:
        x, y = unit[0], unit[1]
    with mpmath.workprec(max(prec, x.bit_length() + 20)):
        return mpmath.log(mpmath.mpf(x) + mpmath.mpf(y) * mpmath.sqrt(D))
