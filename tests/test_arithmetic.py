"""Frequencies, continued fractions, Liouville construction."""

import math

import pytest

from qdlab.arithmetic import (Frequency, continued_fraction,
                              liouville_construct, parse_frequency)

GOLDEN = parse_frequency("golden")
SQRT2M1 = parse_frequency("sqrt2m1")
SQRT3M1 = parse_frequency("sqrt3m1")


def test_symbolic_tags_have_expected_values():
    assert float(GOLDEN) == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-15)
    assert float(SQRT2M1) == pytest.approx(math.sqrt(2) - 1, abs=1e-15)
    assert float(SQRT3M1) == pytest.approx(math.sqrt(3) - 1, abs=1e-15)


def test_parse_frequency_validation():
    f = parse_frequency("0.25")
    assert float(f) == 0.25
    with pytest.raises(ValueError):
        parse_frequency("1.5")
    with pytest.raises(ValueError):
        parse_frequency("not-a-number")
    # values that round to 0 mod 1 at 128 bits
    for text in ("1e-40", 1e-40, "0." + "9" * 41):
        with pytest.raises(ValueError):
            parse_frequency(text)


def test_decimal_string_keeps_the_working_precision():
    # 40 digits pin 128 bits: the string is the golden tag's number
    text = "0.6180339887498948482045868343656381177203"
    assert parse_frequency(text).num == GOLDEN.num


def test_golden_partial_quotients_all_one():
    cf = continued_fraction(GOLDEN, 30)
    assert cf.partial_quotients == [1] * 30
    assert not cf.truncated
    # denominators are the Fibonacci numbers
    fib = [1, 2]
    while len(fib) < 30:
        fib.append(fib[-1] + fib[-2])
    assert cf.denominators == fib


def test_sqrt2m1_partial_quotients_all_two():
    cf = continued_fraction(SQRT2M1, 20)
    assert cf.partial_quotients == [2] * 20


def test_sqrt3m1_partial_quotients_alternate():
    cf = continued_fraction(SQRT3M1, 20)
    assert cf.partial_quotients == [1, 2] * 10


def test_convergents_satisfy_best_approximation_inequality():
    for freq in (GOLDEN, SQRT2M1, SQRT3M1):
        cf = continued_fraction(freq, 25)
        for (p, q), (_, q_next) in zip(cf.convergents, cf.convergents[1:]):
            # exact integer arithmetic on the fixed-point representation
            err_num = abs(q * freq.num - p * freq.modulus)
            assert err_num * q_next < freq.modulus
            assert err_num * (q_next + q) > freq.modulus


def test_rational_expansion_terminates_with_truncation_flag():
    cf = continued_fraction(Frequency(0.25, bits=80), 10)
    assert cf.partial_quotients[0] == 4
    assert cf.truncated


def test_liouville_construct_plants_growth():
    freq, cf = liouville_construct(3.0, 4, initial_quotient=4)
    assert len(cf.planted) == 4
    for q, q_next in cf.planted:
        assert q_next > q ** 3
    # the planted quotient is minimal except for the enlarged first one
    for k, (q, q_next) in enumerate(cf.planted):
        if k == 0:
            continue
        idx = cf.denominators.index(q_next)
        a = cf.partial_quotients[idx]
        q_prev = cf.denominators[idx - 2] if idx >= 2 else 0
        assert (a - 1) * q + q_prev <= q ** 3
    assert float(freq) > 0.0


def test_liouville_tag_parses():
    f = parse_frequency("liouville(2.5, 3)")
    assert 0.0 < float(f) < 1.0
    assert f.bits == 4096


def test_liouville_rejects_gamma_below_one():
    with pytest.raises(ValueError):
        liouville_construct(1.0, 2)
