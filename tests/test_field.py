import random

import pytest

from hrgc.errors import DivisionByZero, UnsupportedQ
from hrgc.field import SUPPORTED_Q, Field, field_new


def test_all_supported_fields_build():
    for q in SUPPORTED_Q:
        F = field_new(q)
        assert F.order == q * q


@pytest.mark.parametrize("q", [1, 6, 10, 12, 14, 15, 17, 32])
def test_unsupported_q_rejected(q):
    with pytest.raises(UnsupportedQ):
        field_new(q)


def test_primitive_element_q4():
    F = field_new(4)
    assert F.pow(F.phi, 15) == 1
    for j in range(1, 15):
        assert F.pow(F.phi, j) != 1


def test_q3_order_and_units():
    F = field_new(3)
    assert F.order == 9
    # the 8 units are the powers of the primitive element
    assert sorted(F.exp(j) for j in range(8)) == list(range(1, 9))


def test_exp_table_full_period_q5():
    # exhaustive: phi^j enumerates every nonzero element once, phi^(q^2-1)=1
    F = field_new(5)
    seen = {F.exp(j) for j in range(24)}
    assert seen == set(range(1, 25))
    assert F.exp(24) == 1


def test_char2_self_cancellation():
    F = field_new(4)
    for a in range(F.order):
        assert F.add(a, a) == 0


def test_inverses_exhaustive_q3():
    F = field_new(3)
    for a in range(1, 9):
        assert F.mul(a, F.inv(a)) == 1
        assert F.div(a, a) == 1


@pytest.mark.parametrize("q", [2, 3, 4])
def test_field_axioms_exhaustive(q):
    F = field_new(q)
    elems = list(range(F.order))
    for a in elems:
        for b in elems:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in elems:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", [5, 8, 9, 13, 16])
def test_field_axioms_random(q):
    F = field_new(q)
    rng = random.Random(q * 1009)
    for _ in range(10_000):
        a, b, c = (rng.randrange(F.order) for _ in range(3))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        if b:
            assert F.mul(F.div(a, b), b) == a


def test_sub_neg_pow_consistency():
    F = field_new(9)
    rng = random.Random(5)
    for _ in range(2000):
        a, b = rng.randrange(81), rng.randrange(81)
        assert F.add(F.sub(a, b), b) == a
        assert F.add(a, F.neg(a)) == 0
    a = F.phi
    acc = 1
    for e in range(10):
        assert F.pow(a, e) == acc
        acc = F.mul(acc, a)


def test_division_by_zero():
    F = field_new(3)
    with pytest.raises(DivisionByZero):
        F.inv(0)
    with pytest.raises(DivisionByZero):
        F.div(4, 0)
    with pytest.raises(DivisionByZero):
        F.log(0)


def test_trace_zero_set_exhaustive_all_q():
    for q in SUPPORTED_Q:
        F = field_new(q)
        thetas = F.trace_zero_set()
        assert len(thetas) == q
        assert len(set(thetas)) == q
        assert thetas[0] == 0
        assert list(thetas) == sorted(thetas)
        brute = [a for a in range(F.order) if F.add(F.pow(a, q), a) == 0]
        assert list(thetas) == brute


def test_trace_zero_q4_cube_roots_of_unity():
    F = field_new(4)
    thetas = F.trace_zero_set()
    for th in thetas[1:]:
        assert F.pow(th, 3) == 1


def test_trace_zero_q3_square_roots_of_minus_one():
    F = field_new(3)
    minus_one = F.neg(1)
    for th in F.trace_zero_set()[1:]:
        assert F.mul(th, th) == minus_one


def test_trace_zero_q2():
    F = field_new(2)
    assert F.trace_zero_set() == (0, 1)


def test_symbols_stay_in_range():
    F = field_new(8)
    rng = random.Random(1)
    for _ in range(5000):
        a, b = rng.randrange(64), rng.randrange(64)
        for v in (F.add(a, b), F.mul(a, b), F.sub(a, b), F.neg(a)):
            assert 0 <= v < 64


def _reference_tables(F):
    """The add, neg, product and translate tables built the slow way: digit
    by digit, exp/log by multiplying a digit vector by x, and every product
    by a scalar exp/log lookup.  Field builds them by whole rows."""
    p, deg, mod, order = F.characteristic, F.degree, F.modulus, F.order
    digits = [[a // p ** i % p for i in range(deg)] for a in range(order)]

    def undig(ds):
        return sum(d * p ** i for i, d in enumerate(ds))

    neg = [undig([-d % p for d in digits[a]]) for a in range(order)]
    add = [[undig([(x + y) % p for x, y in zip(digits[a], digits[b])])
            for b in range(order)] for a in range(order)]
    exp, log, a = [], [0] * order, 1
    for i in range(order - 1):
        exp.append(a)
        log[a] = i
        ds = digits[a]
        top, ds = ds[-1], [0] + ds[:-1]
        a = undig([(d - top * c) % p for d, c in zip(ds, mod)])
    mul = [[exp[(log[a] + log[b]) % (order - 1)] if a and b else 0
            for b in range(order)] for a in range(order)]
    pad = [0] * (256 - order)
    if p == 2:
        mul_bytes = [bytes(row + pad) for row in mul]
    else:
        mul_bytes = [[bytes([digits[v][i] for v in row] + pad)
                      for i in range(deg)] for row in mul]
    return {"_add": add, "_neg": neg, "_exp": exp, "_log": log, "_mul": mul,
            "_mul_bytes": mul_bytes}


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_row_built_tables_equal_the_digit_by_digit_ones(q):
    F = field_new(q)
    for name, want in _reference_tables(F).items():
        assert getattr(F, name) == want, name
