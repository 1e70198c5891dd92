"""Dense linear algebra over a Field: matrices are list-of-row-lists of ints.

These serve the small coefficient matrices (MBR repair's window, basis
changes, the decoders and the recover-mode block solvers); the engines
multiply their bytes symbol rows on ``Field.product`` instead.  The products
here are row combinations on the list view of the Field row kernels
(``Field.comb``); elimination steps are ``Field.axpy`` row operations."""

from __future__ import annotations

from .errors import SingularSystem


def transpose(M):
    return [list(col) for col in zip(*M)]


def mat_mul(F, A, B):
    width = len(B[0]) if B else 0
    rows = F.pack(B, width)
    return [F.comb(Ai, rows, width) for Ai in A]


def mat_vec(F, A, v):
    return F.comb(v, F.pack(transpose(A), len(A)), len(A))


def vec_mat(F, v, A):
    """Row vector times matrix."""
    width = len(A[0])
    return F.comb(v, F.pack(A, width), width)


def _eliminate(F, M, ncols):
    """In-place forward elimination; returns pivot columns.  M is augmented-ok.

    Each step is one list-kernel row operation on the rest of a row,
    right-hand sides included."""
    neg, inv = F.neg, F.inv
    rows = len(M)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for rr in range(r, rows):
            if M[rr][c]:
                piv = rr
                break
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        M[r] = F.scale(inv(M[r][c]), M[r])
        Mc = M[r][c:]
        for rr in range(rows):
            Mr = M[rr]
            if rr != r and Mr[c]:
                Mr[c:] = F.axpy(Mr[c:], neg(Mr[c]), Mc)
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def det_nonzero(F, A):
    """True iff the square matrix is invertible (forward elimination only)."""
    mul, neg, inv = F.mul, F.neg, F.inv
    n = len(A)
    M = [row[:] for row in A]
    for c in range(n):
        piv = None
        for r in range(c, n):
            if M[r][c]:
                piv = r
                break
        if piv is None:
            return False
        M[c], M[piv] = M[piv], M[c]
        ic = inv(M[c][c])
        Mc = M[c][c:]
        for r in range(c + 1, n):
            Mr = M[r]
            if Mr[c]:
                Mr[c:] = F.axpy(Mr[c:], neg(mul(Mr[c], ic)), Mc)
    return True


def mat_inv(F, A):
    n = len(A)
    M = [row[:] + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(A)]
    pivots = _eliminate(F, M, ncols=n)
    if len(pivots) != n:
        raise SingularSystem(f"{n}x{n} matrix not invertible")
    return [row[n:] for row in M]


def solve_square(F, A, b):
    """Solve A x = b for square regular A.  ``b`` is a vector of n symbols,
    or an n x w block of right-hand sides (a list of rows), and x is the
    same kind: one elimination of the augmented rows [A | b] solves every
    column."""
    n = len(A)
    block = bool(b) and isinstance(b[0], list)
    M = [A[i] + (b[i] if block else [b[i]]) for i in range(n)]
    if len(_eliminate(F, M, ncols=n)) != n:
        raise SingularSystem(f"{n}x{n} system singular")
    return [row[n:] if block else row[n] for row in M]


def solve_least_index(F, A, b, need):
    """Solve using the least-index independent subset of the rows of A.

    Those rows are the pivot columns of A's transpose, in one elimination.
    Returns (x, used_rows).  Raises SingularSystem if rank < need.
    """
    used = _eliminate(F, transpose(A), len(A))[:need]
    if len(used) < need:
        raise SingularSystem(f"rank {len(used)} < {need}")
    return solve_square(F, [A[i] for i in used], [b[i] for i in used]), used


def null_space(F, A):
    """Basis of {v : A v = 0} as a list of column vectors."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    M = [row[:] for row in A]
    pivots = _eliminate(F, M, ncols=cols)
    piv_set = set(pivots)
    free = [c for c in range(cols) if c not in piv_set]
    basis = []
    for fc in free:
        v = [0] * cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(M[r][fc])
        basis.append(v)
    return basis


def left_null_space(F, G):
    """Rows h with h G = 0; returns them as a matrix (possibly empty)."""
    return [list(v) for v in null_space(F, transpose(G))]
