import math

import mpmath
import pytest

from sidonkit.pell import CFData, PellError, fundamental_unit, regulator


def test_cfdata_period_anchors():
    # sqrt(2) = [1; 2], sqrt(3) = [1; 1, 2], sqrt(7) = [2; 1, 1, 1, 4],
    # sqrt(13) = [3; 1, 1, 1, 1, 6]
    assert [CFData(D).period for D in (2, 3, 7, 13)] == [1, 2, 4, 5]


def test_cfdata_rejects_squares():
    with pytest.raises(PellError):
        CFData(9)
    with pytest.raises(PellError):
        CFData(1)


@pytest.mark.parametrize("D,x,y,norm", [
    (2, 1, 1, -1),
    (3, 2, 1, 1),
    (5, 2, 1, -1),
    (46, 24335, 3588, 1),
    (61, 29718, 3805, -1),      # smallest unit of Z[sqrt(61)], not the maximal order
])
def test_fundamental_unit_anchors(D, x, y, norm):
    assert fundamental_unit(D) == (x, y, norm)


@pytest.mark.parametrize("D", [2, 3, 7, 13, 19, 46, 61, 94])
def test_fundamental_unit_is_minimal(D, cap=40000):
    x, y, norm = fundamental_unit(D)
    assert x * x - D * y * y == norm
    # no smaller solution in y, brute force (only checks within the cap)
    for b in range(1, min(y, cap)):
        a2 = D * b * b
        r = math.isqrt(a2 + 1)
        assert r * r != a2 + 1
        r = math.isqrt(a2 - 1)
        assert r * r != a2 - 1 or (r, b) == (x, y)


@pytest.mark.parametrize("D", [2, 3, 7, 13, 46, 61])
def test_norm_table_is_correct_and_complete(D):
    cf = CFData(D)
    root = math.isqrt(D)
    for d, (a, b, sign) in cf.norms.items():
        assert a * a - D * b * b == sign * d
    # every |N| < sqrt(D) represented by x^2 - D y^2 shows up
    representable = set()
    for b in range(1, 4000):
        for N in range(1, root + 1):
            for s in (N, -N):
                a2 = D * b * b + s
                if a2 >= 0:
                    a = math.isqrt(a2)
                    if a * a == a2:
                        representable.add(s)
    for s in representable:
        d = abs(s)
        assert d in cf.norms
        a, b, sign = cf.norms[d]
        assert sign * d == s or (-s in representable)


def test_represent():
    cf = CFData(7)
    got = cf.represent(2)
    assert got is not None
    a, b = got
    assert a * a - 7 * b * b == 2
    assert cf.represent(5) is None          # 5 is not a norm from Z[sqrt(7)]


def test_unit_matches_norm_table_walk():
    cf = CFData(46)
    assert cf.unit == (24335, 3588)
    assert cf.unit_norm == 1
    assert 1 in cf.norms


def test_regulator_values():
    with mpmath.workprec(140):
        ref2 = mpmath.log(1 + mpmath.sqrt(mpmath.mpf(2)))
        x, y, _ = fundamental_unit(46)
        ref46 = mpmath.log(x + y * mpmath.sqrt(mpmath.mpf(46)))
        assert abs(regulator(2) - ref2) < mpmath.mpf(2) ** -70
        assert abs(regulator(46) - ref46) < mpmath.mpf(2) ** -60


def test_regulator_of_huge_unit_keeps_precision():
    # D with a long period: the unit has hundreds of digits; the log must
    # still come out to the requested precision rather than collapsing
    D = 1000099
    x, y, norm = fundamental_unit(D)
    assert x * x - D * y * y == norm
    r = regulator(D, prec=120)
    with mpmath.workprec(max(300, x.bit_length() + 40)):
        direct = mpmath.log(mpmath.mpf(x) + mpmath.mpf(y) * mpmath.sqrt(D))
        assert abs(r - direct) < mpmath.mpf(2) ** -90
