"""The row kernels and the linalg products against scalar Field.mul/add loops.

Widths cover the empty row, the list kernel (narrow rows) and the bytes
kernel (wide rows); 300-term sums pass the odd-characteristic lane limit of
255 // (p - 1) - 1 terms before a reduction.  ``comb`` is checked as the list
view of ``comb_bytes``, which also takes rows already held as bytes.
"""

import random

import pytest

from hrgc.errors import SingularSystem
from hrgc.field import SUPPORTED_Q, Field
from hrgc.linalg import (det_nonzero, mat_inv, mat_mul, mat_vec,
                         solve_least_index, solve_square, vec_mat)

WIDTHS = (0, 1, 3, 7, 8, 15, 16, 31, 32, 33, 100)


def scalar_comb(F, coeffs, rows, width):
    out = [0] * width
    for a, row in zip(coeffs, rows):
        for j in range(width):
            out[j] = F.add(out[j], F.mul(a, row[j]))
    return out


def scalar_mat_mul(F, A, B, width):
    return [scalar_comb(F, Ai, B, width) for Ai in A]


def scalar_rank(F, A):
    M = [row[:] for row in A]
    rank = 0
    for c in range(len(M[0]) if M else 0):
        piv = next((r for r in range(rank, len(M)) if M[r][c]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        ic = F.inv(M[rank][c])
        for r in range(rank + 1, len(M)):
            f = F.mul(M[r][c], ic)
            M[r] = [F.sub(x, F.mul(f, y)) for x, y in zip(M[r], M[rank])]
        rank += 1
    return rank


def rand_matrix(F, rng, rows, cols, zeros=0.2):
    return [[0 if rng.random() < zeros else rng.randrange(F.order)
             for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_comb_matches_scalar_loops(q):
    F = Field(q)
    rng = random.Random(f"comb/{q}")
    assert {F._wide - 1, F._wide} <= set(WIDTHS)  # both kernels, at the edge
    for width in WIDTHS:
        for terms in (0, 1, 5, 300):
            rows = rand_matrix(F, rng, terms, width)
            coeffs = [0 if rng.random() < 0.2 else rng.randrange(F.order)
                      for _ in range(terms)]
            packed = F.pack(rows, width)
            got = F.comb(coeffs, packed, width)
            assert got == scalar_comb(F, coeffs, rows, width), (width, terms)
            assert list(F.comb_bytes(coeffs, packed, width)) == got
            assert F.comb_bytes(coeffs, [bytes(r) for r in rows],
                                width) == bytes(got), (width, terms)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_wide_sum_of_largest_digits_reduces_its_lanes(q):
    """Every product has every digit p - 1, the worst case for the lanes."""
    F = Field(q)
    top = F.order - 1               # all base-p digits p - 1
    for width in (1, 40, 100):
        rows = [[top] * width] * 300
        packed = F.pack(rows, width)
        got = F.comb([1] * 300, packed, width)
        assert got == scalar_comb(F, [1] * 300, rows, width)
        assert F.comb_bytes([1] * 300, packed, width) == bytes(got)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_product_matches_scalar_loops(q):
    """``Field.product`` against one scalar sum per row of M: widths on
    both sides of the list kernel's edge (``_wide``) and of lane reuse
    (``_reuse``), more columns than the odd-p lanes take between
    reductions, zero coefficients and an all-zero column, one-row M, and
    columns that repeat a few values, whose lanes are reused.  Each row is
    also ``comb_bytes`` of the same terms."""
    F = Field(q)
    rng = random.Random(f"product/{q}")
    p = F.characteristic
    limit = 255 // (p - 1) - 1 if p > 2 else 0
    few = [0, 1, F.order - 1, rng.randrange(2, F.order - 1)]
    cases = [(width, cols) for width in sorted({1, F._wide - 1, F._wide,
                                                F._reuse - 1, F._reuse, 300})
             for cols in (1, 5)]
    cases += [(F._wide, limit + 3), (F._reuse, limit + 3)]
    for width, cols in cases:
        rows = rand_matrix(F, rng, cols, width)
        packed = [bytes(r) for r in rows]
        for n, values in ((1, None), (6, None), (9, few)):
            M = ([[rng.choice(values) for _ in range(cols)] for _ in range(n)]
                 if values else rand_matrix(F, rng, n, cols))
            if cols > 1:                        # an all-zero column
                for row in M:
                    row[0] = 0
            got = F.product(M, packed, width)
            assert got == [bytes(scalar_comb(F, c, rows, width)) for c in M], (
                width, cols, n)
            assert got == [F.comb_bytes(c, packed, width) for c in M]
    top = F.order - 1                       # every digit p - 1
    for width in (F._wide, F._reuse):
        rows = [bytes([top] * width)] * (limit + 3)
        M = [[1] * (limit + 3)] * 3
        want = bytes(scalar_comb(F, M[0], rows, width))
        assert F.product(M, rows, width) == [want] * 3


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_scale_and_axpy_match_scalar(q):
    F = Field(q)
    rng = random.Random(f"axpy/{q}")
    for a in (0, 1, rng.randrange(2, F.order), F.order - 1):
        row = [rng.randrange(F.order) for _ in range(20)]
        acc = [rng.randrange(F.order) for _ in range(20)]
        assert F.scale(a, row) == [F.mul(a, y) for y in row]
        assert F.axpy(acc, a, row) == [F.add(x, F.mul(a, y))
                                       for x, y in zip(acc, row)]


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_products_match_scalar_loops(q):
    F = Field(q)
    rng = random.Random(f"products/{q}")
    for inner in (0, 1, 6, 300):
        for width in (0, 5, 16, 64):
            A = rand_matrix(F, rng, 4, inner)
            B = rand_matrix(F, rng, inner, width)
            v = [rng.randrange(F.order) for _ in range(inner)]
            if inner:
                assert mat_mul(F, A, B) == scalar_mat_mul(F, A, B, width)
                assert vec_mat(F, v, B) == scalar_comb(F, v, B, width)
            w = [rng.randrange(F.order) for _ in range(width)]
            assert mat_vec(F, B, w) == [scalar_comb(F, row, [[x] for x in w], 1)[0]
                                        for row in B]
    assert mat_mul(F, [[1, 2], [3, 4]], []) == [[], []]
    assert mat_mul(F, [[1], [2]], [[]]) == [[], []]
    assert mat_vec(F, [], [1, 2]) == []


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_solvers_match_scalar_loops(q):
    F = Field(q)
    rng = random.Random(f"solvers/{q}")
    for n in (1, 2, 5, 13):
        A = rand_matrix(F, rng, n, n)
        while scalar_rank(F, A) < n:
            A = rand_matrix(F, rng, n, n)
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert scalar_mat_mul(F, A, mat_inv(F, A), n) == identity
        b = [rng.randrange(F.order) for _ in range(n)]
        x = solve_square(F, A, b)
        assert scalar_mat_mul(F, A, [[xi] for xi in x], 1) == [[bi] for bi in b]
        assert det_nonzero(F, A)
        if n == 1:
            continue
        # row n-1 a combination of the others, or a zero column
        c = [rng.randrange(F.order) for _ in range(n - 1)]
        singulars = [A[:-1] + [scalar_comb(F, c, A[:-1], n)],
                     [[0] + row[1:] for row in A]]
        for S in singulars:
            assert scalar_rank(F, S) < n
            assert not det_nonzero(F, S)
            with pytest.raises(SingularSystem,
                               match=rf"^{n}x{n} matrix not invertible$"):
                mat_inv(F, S)
            with pytest.raises(SingularSystem,
                               match=rf"^{n}x{n} system singular$"):
                solve_square(F, S, b)


@pytest.mark.parametrize("q", [q for q in SUPPORTED_Q if q <= 5 or q == 8])
def test_solve_square_with_a_block_of_right_hand_sides(q):
    """An n x w block of right-hand sides solves to the n x w block whose
    column j is the vector solve of column j; a singular A raises the
    vector solve's text."""
    F = Field(q)
    rng = random.Random(f"solve-block/{q}")
    for n, w in ((1, 1), (2, 3), (5, 1), (6, 20), (12, 10), (14, 60)):
        A = rand_matrix(F, rng, n, n)
        while scalar_rank(F, A) < n:
            A = rand_matrix(F, rng, n, n)
        B = rand_matrix(F, rng, n, w)
        X = solve_square(F, A, B)
        columns = [solve_square(F, A, [row[j] for row in B]) for j in range(w)]
        assert X == [[x[i] for x in columns] for i in range(n)]
        assert scalar_mat_mul(F, A, X, w) == B
        if n == 1:
            continue
        S = A[:-1] + [A[0]]
        with pytest.raises(SingularSystem, match=rf"^{n}x{n} system singular$"):
            solve_square(F, S, B)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_solve_least_index_takes_the_rank_raising_rows(q):
    """Against the greedy reference: row i is used when it raises the rank
    of the rows before it, until ``need`` rows are used."""
    F = Field(q)
    rng = random.Random(f"least-index/{q}")
    deficient = 0
    for _ in range(40):
        need = rng.randrange(1, 7)
        rows = rng.randrange(0, need + 6)
        A = rand_matrix(F, rng, rows, need, zeros=rng.choice((0.2, 0.6)))
        for i in range(1, rows):          # some rows repeat an earlier one
            if rng.random() < 0.3:
                A[i] = scalar_comb(F, [rng.randrange(F.order)],
                                   [A[rng.randrange(i)]], need)
        b = [rng.randrange(F.order) for _ in range(rows)]
        want = []
        for i in range(rows):
            if (len(want) < need and scalar_rank(F, [A[j] for j in want + [i]])
                    > len(want)):
                want.append(i)
        if len(want) < need:
            deficient += 1
            with pytest.raises(SingularSystem,
                               match=rf"^rank {len(want)} < {need}$"):
                solve_least_index(F, A, b, need)
            continue
        x, used = solve_least_index(F, A, b, need)
        assert used == want
        assert [scalar_comb(F, A[i], [[xi] for xi in x], 1)[0] for i in used] \
            == [b[i] for i in used]
    assert 0 < deficient < 40
