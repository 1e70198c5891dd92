"""Errors-and-erasures decoding for codes given by an n x k generator matrix.

Every engine call has generator rows that are monomial evaluations
[1, x_i, ..., x_i^(k-1)] and passes the evaluation ``points``: decoding runs
Welch-Berlekamp interpolation (one linear solve).  Under the usual guarantee
``erasures + 2*errors <= n - k`` the answer is the planted codeword.

Without ``points`` (any generator with every k rows independent) decoding
runs a combinatorial error-support search on the syndrome of the punctured
word: supports are scanned in lexicographic order, smallest weight first,
and a result is returned only when exactly one codeword is consistent at the
winning weight (anything else raises DecodeFailure -- never a silently
ambiguous answer).  No engine path takes it; the tests keep it as the
reference that Welch-Berlekamp's results are checked against.

Before either decoder, a word that is already a codeword exits early: the
message is taken from the first k usable positions (Newton interpolation in
O(k^2) with ``points``, one k x k solve without), re-encoded on the usable
positions, and returned with no error positions when every one agrees.  The
recovery loops erase flagged nodes in every later block, so almost all of
their words take this exit.  It returns exactly what the search would have
returned; any other word, or a first-k window that does not determine the
message, goes to the search unchanged.

With ``points`` the caller may also pass ``suspects``, positions it already
believes in error (the column words of one block share the rows of its
liars).  A word that fails the codeword exit then takes the *suspect exit*
when at most tau_max usable positions are suspects, 2*tau_max <= usable - k,
the usable points are distinct, and every usable non-suspect position
re-encodes from the interpolant of the first k of them: that message is
returned, with the suspects that differ as the errors.  This is exact: the
codeword c is within |suspects| <= tau_max <= (usable - k)/2 of the word, so
for every interpolation solution (Q, E) with E != 0, Q - f_c*E has degree
< k + tau_max and vanishes at the >= k + tau_max positions where the word
agrees with c, and Welch-Berlekamp returns c's message too.  Any other word
goes to the search unchanged, so ``suspects`` changes the cost of a result
or a failure, never the result or the failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .curve import horner
from .errors import DecodeFailure, DivisionByZero, SingularSystem
from .linalg import (
    _eliminate,
    left_null_space,
    mat_vec,
    null_space,
    solve_least_index,
    solve_square,
)

ERASED = None


@dataclass
class DecodeResult:
    message: list
    error_positions: frozenset


def decode(F, generator, values, tau_max=None, points=None, *,
           suspects=frozenset()) -> DecodeResult:
    """Decode ``values`` (entries are symbols or ERASED) against ``generator``.

    tau_max defaults to the guarantee limit floor((n - k - erasures)/2).
    ``suspects`` (positions; used with ``points`` only) lets a word whose
    errors all lie among them skip Welch-Berlekamp by the suspect exit of the
    module docstring, with the result the search would return.
    """
    n = len(generator)
    k = len(generator[0])
    if len(values) != n:
        raise DecodeFailure(f"word length {len(values)} != {n}")
    erased = frozenset(i for i, v in enumerate(values) if v is ERASED)
    pos = [i for i in range(n) if i not in erased]
    if len(pos) < k:
        raise DecodeFailure(f"only {len(pos)} usable positions for dimension {k}")
    if tau_max is None:
        tau_max = max(0, (len(pos) - k) // 2)

    rows = [generator[i] for i in pos]
    r = [values[i] for i in pos]
    xs = None if points is None else [points[i] for i in pos]
    # the codeword exit: with points, tau_max >= 0 makes the interpolation's
    # first null-space vector the locator E = 1 with Q the interpolant
    fit = None
    if xs is None or tau_max >= 0:
        fit = _fit(F, rows, r, xs, k, range(len(pos)))
    # the suspect exit of the module docstring
    if fit is None and xs is not None and suspects:
        hit = sum(1 for i in pos if i in suspects)
        if (0 < hit <= tau_max and 2 * tau_max <= len(pos) - k
                and len(set(xs)) == len(xs)):
            fit = _fit(F, rows, r, xs, k,
                       [x for x, i in enumerate(pos) if i not in suspects])
    if fit is not None:
        message, codeword = fit
    else:
        message = (_decode_wb(F, k, xs, r, tau_max) if xs is not None
                   else _decode_generic(F, rows, r, k, tau_max))
        codeword = mat_vec(F, rows, message)
    errors = frozenset(i for i, v, c in zip(pos, r, codeword) if v != c)
    if len(errors) > tau_max:
        raise DecodeFailure(f"{len(errors)} mismatches exceed tau_max={tau_max}")
    return DecodeResult(message=message, error_positions=errors)


def _fit(F, rows, r, xs, k, trusted):
    """(message, codeword) of the first k ``trusted`` usable positions when
    every trusted position re-encodes to its symbol, else None.

    The message is interpolated at the points xs or, without ``points``,
    solved from the generator rows: the search accepts a zero syndrome with
    the unique message, so a regular first-k window is enough.  A repeated
    point or a singular window does not determine the message: None.
    """
    first = trusted[:k]
    try:
        if xs is None:
            message = solve_square(F, [rows[x] for x in first],
                                   [r[x] for x in first])
        else:
            message = _interpolate(F, [xs[x] for x in first],
                                   [r[x] for x in first])
    except (SingularSystem, DivisionByZero):
        return None
    codeword = mat_vec(F, rows, message)
    if any(codeword[x] != r[x] for x in trusted):
        return None
    return message, codeword


def _interpolate(F, xs, ys):
    """Coefficients (lowest first) of the polynomial of degree < len(xs)
    through the points, by Newton divided differences."""
    n = len(xs)
    c = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            c[i] = F.div(F.sub(c[i], c[i - 1]), F.sub(xs[i], xs[i - j]))
    poly = [c[-1]]
    for i in range(n - 2, -1, -1):
        # poly * (x - xs[i]) + c[i]
        shifted = [0] + poly
        for j, p in enumerate(poly):
            shifted[j] = F.sub(shifted[j], F.mul(p, xs[i]))
        shifted[0] = F.add(shifted[0], c[i])
        poly = shifted
    return poly


def _decode_generic(F, G, r, k, tau_max):
    H = left_null_space(F, G)
    if len(H) != len(G) - k:
        raise DecodeFailure(f"generator rank below {k} on the usable positions")
    s = mat_vec(F, H, r)

    if not any(s):
        msg, _ = _solve_message(F, G, r, k)
        return msg

    npos = len(r)
    hcols = list(zip(*H)) if H else []
    for tau in range(1, tau_max + 1):
        candidates = []
        ambiguous = False
        for J in combinations(range(npos), tau):
            out = _consistent_support(F, hcols, J, s, len(H))
            if out == "multi":
                ambiguous = True
            elif out is not None:
                word = list(r)
                for j, e in zip(J, out):
                    word[j] = F.sub(word[j], e)
                if word not in candidates:
                    candidates.append(word)
        if ambiguous or len(candidates) > 1:
            raise DecodeFailure(
                f"ambiguous: multiple codewords within {tau} errors"
            )
        if candidates:
            msg, _ = _solve_message(F, G, candidates[0], k)
            return msg
    raise DecodeFailure(f"no codeword within tau_max={tau_max} errors")


def _consistent_support(F, hcols, J, s, nrows):
    """Solve H_J e = s.  Returns e (unique), 'multi', or None (inconsistent)."""
    tau = len(J)
    M = [[hcols[j][row] for j in J] + [s[row]] for row in range(nrows)]
    pivots = _eliminate(F, M, ncols=tau)
    rank = len(pivots)
    for row in range(rank, nrows):
        if M[row][tau]:
            return None
    if rank < tau:
        return "multi"
    return [M[i][tau] for i in range(tau)]


def _solve_message(F, G, word, k):
    try:
        return solve_least_index(F, G, word, k)
    except SingularSystem as exc:
        raise DecodeFailure(str(exc)) from exc


# -- Welch-Berlekamp interpolation path ----------------------------------------


def _decode_wb(F, k, xs, r, tau_max):
    if tau_max == 0:
        G = [[F.pow(x, j) for j in range(k)] for x in xs]
        msg, _ = _solve_message(F, G, r, k)
        for x, v in zip(xs, r):
            if horner(F, msg, x) != v:
                raise DecodeFailure("inconsistent word with tau_max=0")
        return msg

    tau = tau_max
    # unknowns: Q coeffs (k + tau) then E coeffs (tau + 1); rows: Q(x) - r E(x) = 0
    rows = []
    for x, v in zip(xs, r):
        xp = [1]
        for _ in range(k + tau - 1):
            xp.append(F.mul(xp[-1], x))
        row = xp[: k + tau]
        ep = [1]
        for _ in range(tau):
            ep.append(F.mul(ep[-1], x))
        row = row + [F.neg(F.mul(v, e)) for e in ep[: tau + 1]]
        rows.append(row)
    basis = null_space(F, rows)
    sol = next((v for v in basis if any(v[k + tau:])), None)
    if sol is None:
        raise DecodeFailure("interpolation found no nonzero error locator")
    Q = sol[: k + tau]
    E = sol[k + tau:]
    f, rem = _poly_divmod(F, Q, E)
    if any(rem):
        raise DecodeFailure("error locator does not divide the interpolant")
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    if len(f) > k:
        raise DecodeFailure("decoded polynomial exceeds the message degree")
    return f + [0] * (k - len(f))


def _poly_divmod(F, num, den):
    num = list(num)
    dd = len(den) - 1
    while dd >= 0 and den[dd] == 0:
        dd -= 1
    if dd < 0:
        raise DecodeFailure("zero error locator")
    lead_inv = F.inv(den[dd])
    quot = [0] * max(1, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            q = F.mul(c, lead_inv)
            quot[i - dd] = q
            for j in range(dd + 1):
                if den[j]:
                    num[i - dd + j] = F.sub(num[i - dd + j], F.mul(q, den[j]))
    return quot, num[:dd] if dd else []
