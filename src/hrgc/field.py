"""Exact arithmetic over GF(q^2) for prime-power q <= 16.

Symbols are plain Python ints in [0, q^2 - 1]: the base-p digit expansion of
the index gives the coordinates of the element in the polynomial basis
{1, x, ..., x^(2s-1)} of GF(p^(2s)) = GF(q^2).  The modulus for each q is
fixed below (lexicographically smallest monic primitive polynomial with x as
a generator), so the integer representation is stable across runs and
implementations.

phi = x (index p) is the primitive element; exp/log tables are built by
repeated multiplication by x and verified to have full period q^2 - 1.

Every table is built a whole row at a time, so a field costs a few
milliseconds even at q=16: the sum table grows one base-p digit at a time,
multiplication by x is a digit shift plus one sum-table lookup, product row
a reads exp rotated by log a at log b, and the translate tables of odd p are
those rows mapped through per-digit byte tables.
"""

from __future__ import annotations

import operator
from itertools import repeat

from .errors import DivisionByZero, UnsupportedQ

# q -> (characteristic p, extension degree 2s, modulus coefficients c0..c_{2s-1};
# the leading x^(2s) coefficient is implicit).  x is primitive for every entry.
_MODULI = {
    2: (2, 2, (1, 1)),            # x^2 + x + 1
    3: (3, 2, (2, 1)),            # x^2 + x + 2
    4: (2, 4, (1, 1, 0, 0)),      # x^4 + x + 1
    5: (5, 2, (2, 1)),            # x^2 + x + 2
    7: (7, 2, (3, 1)),            # x^2 + x + 3
    8: (2, 6, (1, 1, 0, 0, 0, 0)),        # x^6 + x + 1
    9: (3, 4, (2, 1, 0, 0)),              # x^4 + x + 2
    11: (11, 2, (7, 1)),                  # x^2 + x + 7
    13: (13, 2, (2, 1)),                  # x^2 + x + 2
    16: (2, 8, (1, 0, 1, 1, 1, 0, 0, 0)),  # x^8 + x^4 + x^3 + x^2 + 1
}

SUPPORTED_Q = tuple(sorted(_MODULI))


class Field:
    """GF(q^2) with lookup-table arithmetic.  Immutable after construction."""

    def __init__(self, q: int):
        if q not in _MODULI:
            raise UnsupportedQ(
                f"q={q} not supported; choose one of {SUPPORTED_Q}"
            )
        p, deg, mod = _MODULI[q]
        self.q = q
        self.order = q * q
        self.characteristic = p
        self.degree = deg
        self.modulus = mod

        order = self.order
        # the sum table grows a digit at a time, each row whole: with T the
        # table of the low i digits (w = p^i), a + c*w plus b + d*w is
        # ((c + d) % p) * w + T[a][b]
        self._add = [[0]]
        for w in (p ** i for i in range(deg)):
            shift = [[(c + d) % p * w for d in range(p)] for c in range(p)]
            self._add = [[h + x for h in shift[c] for x in row]
                         for c in range(p) for row in self._add]
        self._neg = [row.index(0) for row in self._add]

        # exp/log by repeated multiplication by x: x * (low + top x^(2s-1))
        # is low shifted up one digit plus top * x^(2s) = -top * modulus
        top_at = p ** (deg - 1)
        wrap = [sum(-t * c % p * p ** i for i, c in enumerate(mod))
                for t in range(p)]
        self._exp = [0] * (order - 1)
        self._log = [0] * order
        a = 1
        for i in range(order - 1):
            self._exp[i] = a
            self._log[a] = i
            a = self._add[a % top_at * p][wrap[a // top_at]]
        if a != 1 or len(set(self._exp)) != order - 1:
            raise AssertionError(f"modulus for q={q} is not primitive")
        self.phi = self._exp[1] if order > 2 else 1  # = x, index p

        self._inv = [0] * order
        for b in range(1, order):
            self._inv[b] = self._exp[(order - 1 - self._log[b]) % (order - 1)]

        # row-kernel tables: the full product table, row a read off exp
        # rotated by log a, and per constant a the 256-byte bytes.translate
        # tables of b -> a*b (char 2) or b -> digit i of a*b (odd p); bytes
        # at or past ``order`` map to 0
        at_logs = operator.itemgetter(*self._log[1:])
        self._mul = [[0] * order] + [
            [0, *at_logs(self._exp[la:] + self._exp[:la])]
            for la in self._log[1:]
        ]
        pad = bytes(256 - order)
        rows = [bytes(row) + pad for row in self._mul]
        if p == 2:
            self._mul_bytes = rows
        else:
            digit_tabs = [bytes(b // p ** i % p for b in range(order)) + pad
                          for i in range(deg)]
            self._mul_bytes = [[row.translate(tab) for tab in digit_tabs]
                               for row in rows]
            self._mod_p = bytes(v % p for v in range(256))
        # the bytes kernel costs one translate per digit plane and term, the
        # list kernel one table lookup per symbol and term; a product keeps
        # a term's lanes for reuse (a dict lookup) once its translates span
        # 256 bytes
        planes = 1 if p == 2 else deg
        self._wide = 8 * planes
        self._reuse = 256 // planes

    # -- arithmetic -----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise DivisionByZero("division by 0")
        if a == 0:
            return 0
        return self._exp[(self._log[a] - self._log[b]) % (self.order - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("0 to a negative power")
            return 0
        return self._exp[(self._log[a] * e) % (self.order - 1)]

    def exp(self, i: int) -> int:
        """phi^i (i may be any integer)."""
        return self._exp[i % (self.order - 1)]

    def log(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("log of 0")
        return self._log[a]

    # -- row kernels ----------------------------------------------------
    #
    # Table-driven "multiply a region by a constant" (Plank, Greenan and
    # Miller, FAST 2013).  Rows are lists of symbols, or bytes of one symbol
    # per byte; the scalar mul/add above stay the reference the kernels are
    # tested against.

    def scale(self, a: int, row):
        """a * row, elementwise."""
        pa = self._mul[a]
        return [pa[y] for y in row]

    def axpy(self, acc, a: int, row):
        """acc + a * row, elementwise."""
        add, pa = self._add, self._mul[a]
        return [add[x][pa[y]] for x, y in zip(acc, row)]

    def pack(self, rows, width: int):
        """``rows`` (each ``width`` symbols) in the form the combs take:
        bytes, one symbol per byte, when the rows are wide enough for the
        bytes kernel to win, else the lists themselves."""
        return [bytes(r) for r in rows] if width >= self._wide else rows

    def comb(self, coeffs, rows, width: int):
        """sum_i coeffs[i] * rows[i] as a list of ``width`` symbols, for
        ``rows`` from ``pack``; zero coefficients cost nothing.  The list
        view of ``comb_bytes``: wide rows take its lanes, and its narrow sum
        is this list loop."""
        if width >= self._wide:
            return list(self.comb_bytes(coeffs, rows, width))
        # axpy, inlined: the narrow block solves run this loop
        add, mul = self._add, self._mul
        acc = [0] * width
        for a, r in zip(coeffs, rows):
            if a:
                pa = mul[a]
                acc = [add[x][pa[y]] for x, y in zip(acc, r)]
        return acc

    def comb_bytes(self, coeffs, rows, width: int) -> bytes:
        """sum_i coeffs[i] * rows[i] as ``width`` bytes, one symbol per
        byte, for ``rows`` from ``pack`` or rows already held as bytes: one
        row of ``product``, which keeps no lanes for another."""
        if width < self._wide:
            return bytes(self.comb(coeffs, rows, width))
        return self._lane_sum(coeffs, rows, width, None)

    def product(self, M, rows, width: int):
        """M times the matrix of ``rows``: per row c of M, sum_j c[j] *
        rows[j] as ``width`` bytes, one symbol per byte, for bytes-like
        ``rows`` (on narrow widths, lists too).

        Rows wide enough keep the lanes of c[j] * rows[j] per source row j
        and coefficient, so each (row, coefficient) pair is translated and
        read once however many rows of M share it: the columns of the
        encoding matrices repeat values (powers of the node x-values).
        Narrow rows take ``comb``'s list loop."""
        if width < self._wide:
            return [bytes(self.comb(c, rows, width)) for c in M]
        seen = [{} for _ in rows] if width >= self._reuse else None
        return [self._lane_sum(c, rows, width, seen) for c in M]

    def _lane_sum(self, coeffs, rows, width, seen):
        """The wide kernel: sum_j coeffs[j] * rows[j] on big-int lanes of
        one byte per symbol, with ``seen[j]`` (when not None) the lanes of
        row j per coefficient, filled as they are made.

        In char 2 a lane holds the product and the sum is XOR.  For odd p
        the base-p digit planes of a product sit side by side in one int
        (plane i at byte i * width) and add as ints; a lane gains at most
        p - 1 per term, so reducing the digits mod p (``_digits``) every
        255 // (p - 1) - 1 terms keeps it below 256, and the reduced planes
        recombine as sum_i p^i plane_i."""
        tabs, acc, from_bytes = self._mul_bytes, 0, int.from_bytes
        if self.characteristic == 2:
            if seen is None:
                for a, r in zip(coeffs, rows):
                    if a:
                        acc ^= from_bytes(r.translate(tabs[a]), "little")
            else:
                for a, r, lanes in zip(coeffs, rows, seen):
                    if a:
                        v = lanes.get(a)
                        if v is None:
                            v = lanes[a] = from_bytes(
                                r.translate(tabs[a]), "little")
                        acc ^= v
            return acc.to_bytes(width, "little")
        p = self.characteristic
        limit, terms = 255 // (p - 1) - 1, 0
        for a, r, lanes in zip(coeffs, rows, seen or repeat(None)):
            if a:
                if terms == limit:
                    acc = from_bytes(self._digits(acc, width), "little")
                    terms = 0
                v = None if lanes is None else lanes.get(a)
                if v is None:
                    v = from_bytes(b"".join([r.translate(t) for t in tabs[a]]),
                                   "little")
                    if lanes is not None:
                        lanes[a] = v
                acc += v
                terms += 1
        planes, acc = self._digits(acc, width), 0
        for i in range(self.degree - 1, -1, -1):
            acc = acc * p + from_bytes(planes[i * width:(i + 1) * width],
                                       "little")
        return acc.to_bytes(width, "little")

    def _digits(self, v: int, width: int) -> bytes:
        """The odd-p lanes v, every digit reduced mod p, as bytes."""
        return v.to_bytes(self.degree * width, "little").translate(self._mod_p)

    # -- structure ------------------------------------------------------

    def trace_zero_set(self) -> tuple:
        """The q solutions of y^q + y = 0, ascending by index (theta_0 = 0)."""
        out = [a for a in range(self.order) if self.add(self.pow(a, self.q), a) == 0]
        assert out[0] == 0 and len(out) == self.q
        return tuple(out)

    def __repr__(self):
        return f"Field(q={self.q})"


def field_new(q: int) -> Field:
    """Build GF(q^2); raises UnsupportedQ for anything outside the table."""
    return Field(q)
