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
        # list kernel one table lookup per symbol and term
        self._wide = 8 * (1 if p == 2 else deg)

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
        byte, for ``rows`` from ``pack`` or rows already held as bytes.

        Wide rows are big-int lanes of one byte per symbol.  In char 2 the
        sum is XOR.  For odd p each base-p digit has its own accumulator
        whose byte lanes add the digits of each product; a lane gains at
        most p - 1 per term, so a ``% p`` translate every 255 // (p - 1) - 1
        terms keeps it below 256, and the reduced planes recombine as
        sum_i p^i plane_i.
        """
        if width < self._wide:
            return bytes(self.comb(coeffs, rows, width))
        tabs = self._mul_bytes
        if self.characteristic == 2:
            acc = 0
            for a, r in zip(coeffs, rows):
                if a:
                    acc ^= int.from_bytes(r.translate(tabs[a]), "little")
            return acc.to_bytes(width, "little")
        p, mod = self.characteristic, self._mod_p

        def reduce(v):
            return int.from_bytes(v.to_bytes(width, "little").translate(mod),
                                  "little")

        limit = 255 // (p - 1) - 1
        planes = [0] * self.degree
        terms = 0
        for a, r in zip(coeffs, rows):
            if a:
                if terms == limit:
                    planes = [reduce(v) for v in planes]
                    terms = 0
                for i, tab in enumerate(tabs[a]):
                    planes[i] += int.from_bytes(r.translate(tab), "little")
                terms += 1
        acc = 0
        for v in reversed(planes):
            acc = acc * p + reduce(v)
        return acc.to_bytes(width, "little")

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
