import random

import pytest

from hrgc.curve import (
    PointTable,
    encode_column,
    enumerate_points,
    group_x_value,
    kappa,
)
from hrgc.errors import InvalidM
from hrgc.field import SUPPORTED_Q, field_new
from hrgc.linalg import mat_mul, solve_square


def kappa_brute(q, m, j):
    # independent oracle: largest t with t*q + j*(q+1) <= m, plus 1
    t = 0
    while (t + 1) * q + j * (q + 1) <= m:
        t += 1
    assert t * q + j * (q + 1) <= m
    return t + 1


def test_kappa_q4_m37():
    assert kappa(4, 37) == (10, 9, 7, 6)


def test_kappa_q3_m8_matches_brute_force():
    assert kappa(3, 8) == tuple(kappa_brute(3, 8, j) for j in range(3))
    assert kappa(3, 8) == (3, 2, 1)


def test_kappa_brute_force_sweep():
    for q in (3, 4, 5, 7):
        for m in (q * q - 1, q * q, 2 * q * q + q + 1, 3 * q * q):
            assert kappa(q, m) == tuple(kappa_brute(q, m, j) for j in range(q))


def test_kappa_rejects_small_m():
    with pytest.raises(InvalidM):
        kappa(4, 14)
    assert kappa(4, 15)  # boundary is inclusive


def test_kappa_non_increasing():
    for q in (3, 4, 5):
        ks = kappa(q, 2 * q * q + q + 1)
        assert all(ks[i] >= ks[i + 1] for i in range(q - 1))


@pytest.mark.parametrize("q,count", [(3, 27), (4, 64)])
def test_point_count(q, count):
    table = enumerate_points(field_new(q))
    assert len(table.points) == count


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_points_satisfy_curve_equation(q):
    F = field_new(q)
    table = enumerate_points(F)
    for p in table.points:
        assert F.add(F.pow(p.y, q), p.y) == F.pow(p.x, q + 1)


def test_group_structure_q3():
    F = field_new(3)
    table = enumerate_points(F)
    thetas = F.trace_zero_set()
    # group 0 is exactly {(0, theta_l)}
    for l, p in enumerate(table.group_points(0)):
        assert (p.x, p.y) == (0, thetas[l])
    # every group: common x, distinct y of the form y_p + theta_l
    for g in range(9):
        pts = table.group_points(g)
        assert len({p.x for p in pts}) == 1
        assert len({p.y for p in pts}) == 3
        y_p = table.y_particular[g]
        assert [p.y for p in pts] == [F.add(y_p, th) for th in thetas]


def test_group_x_values():
    F = field_new(4)
    assert group_x_value(F, 0) == 0
    assert group_x_value(F, 1) == 1
    assert group_x_value(F, 15) == F.exp(14)
    xs = [group_x_value(F, g) for g in range(16)]
    assert sorted(xs) == list(range(16))  # every field element exactly once


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_node_basis_invertible(q):
    F = field_new(q)
    table = enumerate_points(F)
    ident = [[1 if i == j else 0 for j in range(q)] for i in range(q)]
    for g in range(q * q):
        B = table.basis(g)
        assert mat_mul(F, B, table.basis_inv(g)) == ident


def test_node_basis_rows_q3_group0():
    F = field_new(3)
    table = enumerate_points(F)
    thetas = F.trace_zero_set()
    B = table.basis(0)
    assert B == [[1, th, F.mul(th, th)] for th in thetas]


def test_encode_zero_and_constant():
    F = field_new(3)
    table = enumerate_points(F)
    blocks = [[0] * 3, [0] * 2, [0]]
    assert encode_column(blocks, table) == [0] * 27
    blocks = [[5], [], []]
    assert encode_column(blocks, table) == [5] * 27


def test_encode_linearity():
    F = field_new(4)
    table = enumerate_points(F)
    rng = random.Random(3)
    kap = kappa(4, 37)
    b1 = [[rng.randrange(16) for _ in range(kap[j])] for j in range(4)]
    b2 = [[rng.randrange(16) for _ in range(kap[j])] for j in range(4)]
    c1 = encode_column(b1, table)
    c2 = encode_column(b2, table)
    bsum = [[F.add(u, v) for u, v in zip(x, y)] for x, y in zip(b1, b2)]
    assert encode_column(bsum, table) == [F.add(u, v) for u, v in zip(c1, c2)]


def _group_decode(F, table, codeword, g):
    """Solve the per-group basis system: returns [f_j(x_g) for j]."""
    q = F.q
    h = codeword[g * q:(g + 1) * q]
    return solve_square(F, table.basis(g), h)


@pytest.mark.parametrize("q,m", [(3, 8), (4, 37)])
def test_encode_group_decode_interpolate_round_trip(q, m):
    """Bijectivity oracle: group-solve then interpolate every f_j back."""
    F = field_new(q)
    table = enumerate_points(F)
    kap = kappa(q, m)
    rng = random.Random(q * 11)
    for _ in range(5):
        blocks = [[rng.randrange(F.order) for _ in range(kap[j])] for j in range(q)]
        cw = encode_column(blocks, table)

        evals = [_group_decode(F, table, cw, g) for g in range(q * q)]
        xs = [group_x_value(F, g) for g in range(q * q)]
        for j in range(q):
            deg = kap[j]
            van = [[F.pow(xs[g], r) for r in range(deg)] for g in range(deg)]
            coeffs = solve_square(F, van, [evals[g][j] for g in range(deg)])
            assert coeffs == blocks[j]
            # remaining groups consistent with the interpolated polynomial
            for g in range(deg, q * q):
                acc = 0
                for r in range(deg):
                    acc = F.add(acc, F.mul(coeffs[r], F.pow(xs[g], r)))
                assert acc == evals[g][j]


def test_group_solve_matches_direct_evaluation():
    # the per-node system recovers exactly [f_0(x_g), ..., f_{q-1}(x_g)]
    F = field_new(3)
    table = enumerate_points(F)
    rng = random.Random(9)
    blocks = [[rng.randrange(9) for _ in range(3)], [rng.randrange(9)], [rng.randrange(9)]]
    cw = encode_column(blocks, table)
    for g in range(9):
        x = group_x_value(F, g)
        want = []
        for coeffs in blocks:
            acc = 0
            for r, c in enumerate(coeffs):
                acc = F.add(acc, F.mul(c, F.pow(x, r)))
            want.append(acc)
        assert _group_decode(F, table, cw, g) == want


def test_point_table_deterministic():
    a = enumerate_points(field_new(5))
    b = enumerate_points(field_new(5))
    assert a.points == b.points


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_y_particular_is_the_lowest_index_solution(q):
    # the brute-force search: per group, the first y in index order with
    # y^q + y = x_g^(q+1)
    F = field_new(q)
    want = [next(y for y in range(F.order)
                 if F.add(F.pow(y, q), y) == F.pow(group_x_value(F, g), q + 1))
            for g in range(q * q)]
    assert PointTable(F).y_particular == want
