"""The Hermitian curve y^q + y = x^(q+1) over GF(q^2) and its evaluation code.

The q^3 affine points are arranged in q^2 groups of q: group g holds the q
points whose x-coordinate is x_g (x_0 = 0, x_g = phi^(g-1) for g >= 1).
Within a group the y-coordinates are y_p + theta_l, where y_p is the
lowest-index particular solution of y^q + y = x_g^(q+1) and theta_0..theta_{q-1}
are the solutions of y^q + y = 0 in ascending index order.  The point order
(group ascending, slot ascending) fixes codeword coordinates everywhere in
this package.

A message is a list of q coefficient blocks f_0..f_{q-1} (block j holding the
coefficients of f_j, degree < kappa(j)); the codeword entry at point P is
sum_j y(P)^j * f_j(x(P)).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import InvalidM
from .field import Field
from .linalg import mat_inv, mat_mul


def kappa(q: int, m: int, j: int | None = None):
    """Per-layer dimension bound max{t : t*q + j*(q+1) <= m} + 1.

    Returns the full tuple for j=None.  Pure arithmetic; q need not be a
    prime power here (the capability sweep relies on that).
    """
    if m < q * q - 1:
        raise InvalidM(f"m={m} < q^2-1={q*q-1}")
    if j is None:
        return tuple(kappa(q, m, jj) for jj in range(q))
    return (m - j * (q + 1)) // q + 1


@dataclass(frozen=True)
class CurvePoint:
    x: int
    y: int
    group: int
    slot: int


class PointTable:
    """All q^3 rational points, ordered by (group, slot), plus cached bases."""

    def __init__(self, field: Field):
        self.field = field
        q = field.q
        self.theta = field.trace_zero_set()
        # one pass of y -> y^q + y, descending, leaves each value's
        # lowest-index preimage
        lowest = {field.add(field.pow(y, q), y): y
                  for y in reversed(range(field.order))}
        pts = []
        self.y_particular = []
        for g in range(q * q):
            x = group_x_value(field, g)
            y_p = lowest[field.pow(x, q + 1)]
            self.y_particular.append(y_p)
            for l in range(q):
                y = field.add(y_p, self.theta[l])
                pts.append(CurvePoint(x=x, y=y, group=g, slot=l))
        self.points = tuple(pts)
        self._basis = {}
        self._basis_inv = {}

    @property
    def q(self):
        return self.field.q

    def group_points(self, g: int):
        q = self.q
        return self.points[g * q:(g + 1) * q]

    def basis(self, g: int):
        """q x q matrix with row l = [1, y, ..., y^(q-1)] for slot l of group g."""
        if g not in self._basis:
            F = self.field
            self._basis[g] = [
                [F.pow(p.y, j) for j in range(self.q)] for p in self.group_points(g)
            ]
        return self._basis[g]

    def basis_inv(self, g: int):
        """basis(g)^-1.  Group g's y are y_p + theta_l, so basis(g) is
        basis(0) times the Pascal matrix P(y_p)[i][j] = C(j, i) y_p^(j-i),
        whose inverse is P(-y_p): one inversion serves every group."""
        F, q, known = self.field, self.q, self._basis_inv
        if 0 not in known:
            known[0] = mat_inv(F, self.basis(0))
        if g not in known:
            y, p = F.neg(self.y_particular[g]), F.characteristic
            pascal = [[F.mul(comb(j, i) % p, F.pow(y, j - i)) if j >= i
                       else 0 for j in range(q)] for i in range(q)]
            known[g] = mat_mul(F, pascal, known[0])
        return known[g]


def group_x_value(field: Field, g: int) -> int:
    """x-coordinate shared by group g: 0 for g=0, phi^(g-1) otherwise."""
    if not 0 <= g < field.order:
        raise IndexError(f"group {g} out of range")
    return 0 if g == 0 else field.exp(g - 1)


def enumerate_points(field: Field) -> PointTable:
    return PointTable(field)


def encode_column(blocks, table: PointTable):
    """Evaluate the layered polynomial at every point (reference encoder).

    ``blocks``: q lists of coefficients, block j = coefficients of f_j
    (low degree first, length <= kappa(j) -- not checked here beyond q).
    Returns the q^3-symbol codeword in table order.
    """
    F = table.field
    q = F.q
    assert len(blocks) == q
    out = []
    for g in range(q * q):
        x = group_x_value(F, g)
        evals = [horner(F, coeffs, x) for coeffs in blocks]
        for p in table.group_points(g):
            acc = 0
            ypow = 1
            for j in range(q):
                if evals[j]:
                    acc = F.add(acc, F.mul(ypow, evals[j]))
                ypow = F.mul(ypow, p.y)
            out.append(acc)
    return out


def horner(F, coeffs, x):
    """The polynomial with coefficients ``coeffs`` (lowest first) at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = F.add(F.mul(acc, x), c)
    return acc
