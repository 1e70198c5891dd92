"""Code profiles: layered encoding matrices, the per-layer coefficient
polynomials lambda_l, and their selection.

Layer l (0 <= l < q) carries a Vandermonde matrix Phi_l (q^2 x alpha_l) whose
row g is [1, x_g, ..., x_g^(alpha_l - 1)] with the same x_g convention as the
point table.  MSR additionally uses Psi_l = [Phi_l, Lambda_l Phi_l], where
Lambda_l is the diagonal of lambda_l(x_g) and lambda_l is a monic polynomial
of degree alpha_l (the product-matrix choice of Rashmi, Shah and Kumar,
lambda = x^alpha).  Row g of Psi_l times [a; b] is
a(x_g) + lambda_l(x_g) b(x_g) = f(x_g), with f = a + lambda_l b of degree
below 2 alpha_l = d_l, and (a, b) -> f is one to one: a = f mod lambda_l,
b = f div lambda_l.  So after a fixed change of basis Psi_l is a Vandermonde
matrix of width d_l: every d_l rows are regular, the left null vector of any
d_l + 1 rows has no zero entry, and a repair word is a Reed-Solomon word.

What lambda_l must still meet is about reconstruction, whose pair solve
divides by lambda_l(x_i) - lambda_l(x_j); a pair with equal values is an
erasure for the block solver.  The fibre rule: no value of lambda_l is taken
at more than 1 + alpha_0 - alpha_l x-values (so lambda_0 permutes them),
which keeps every layer within the profile-wide recovery budget
sigma + 2 tau <= q^2 - alpha_0 - 1.  The window rule: lambda_l is distinct on
x_0 .. x_{alpha_l + 2}, which holds every lowest-id reconstruction window
with at most one failed node.  ``select_delta`` takes the first fit per
layer: x^alpha_l (a permutation when gcd(alpha_l, q^2 - 1) = 1 or alpha_l is
a power of p), else seeded draws.  Dickson polynomials D_n(x, a), a != 0,
are not tried: they permute GF(Q) only when gcd(n, Q^2 - 1) = 1, where x^n
already does.  MBR never multiplies by Lambda and carries no lambda.
"""

from __future__ import annotations

import hashlib
import math
import random
from array import array
from dataclasses import dataclass, field as dfield
from functools import cached_property
from itertools import accumulate

from .curve import PointTable, enumerate_points, group_x_value, kappa
from .errors import (
    InvalidAlpha,
    InvalidK,
    InvalidParams,
    LambdaSearchFailed,
)
from .field import Field, field_new
from .linalg import transpose

MAX_LAMBDA_DRAWS = 1 << 14
CODES = ("msr", "mbr")


@dataclass(eq=False)
class CodeProfile:
    mode: str                # "msr" | "mbr"
    q: int
    m: int
    alpha: tuple
    k: tuple
    lam_poly: tuple          # MSR: lambda_l's coefficients per layer; MBR: ()
    seed: int
    kappa: tuple
    d: tuple
    A: int
    B: int
    field: Field = dfield(repr=False)
    points: PointTable = dfield(repr=False, init=False)
    lam: tuple = dfield(repr=False, init=False)   # lam[l][g] = lambda_l(x_g)

    def __post_init__(self):
        F = self.field
        self.points = enumerate_points(F)
        self._powers = {}
        self._xs = [group_x_value(F, g) for g in range(self.q * self.q)]
        if self.lam_poly:
            cols = _power_columns(F, self._xs, self.alpha[0] + 1)
            self.lam = tuple(tuple(F.comb(c, cols, len(self._xs)))
                             for c in self.lam_poly)
        else:
            self.lam = ()

    # -- encoding matrices -------------------------------------------------

    def x_value(self, g: int) -> int:
        return self._xs[g]

    def mu_row(self, g: int, l: int):
        """Row g of Phi_l."""
        return self.phi(l)[g]

    def nu_row(self, g: int, l: int):
        """Row g of [Phi_l, Lambda_l Phi_l] (MSR encoding vector of node g)."""
        mu = self.mu_row(g, l)
        return mu + self.field.scale(self.lam[l][g], mu)

    def phi(self, l: int):
        return self.powers(self.alpha[l])

    def powers(self, width: int):
        """Every node's row [1, x_g, ..., x_g^(width - 1)]."""
        if width not in self._powers:
            self._powers[width] = _phi_rows(self.field, self._xs, width)
        return self._powers[width]

    def blocks(self, l: int) -> int:
        return self.A // self.alpha[l]

    @cached_property
    def layout(self):
        """The message layout's index tables (``_layout_tables``)."""
        return _layout_tables(self)

    @cached_property
    def help_keys(self):
        """Per layer l, the keys (l, t) of its blocks' help symbols, built
        once so that a helper response makes none."""
        return tuple(tuple((l, t) for t in range(self.blocks(l)))
                     for l in range(self.q))

    @property
    def n_nodes(self) -> int:
        return self.q * self.q


# -- profile construction ---------------------------------------------------


def profile_new(mode: str, q: int, m: int, alpha, k=None, seed: int = 1) -> CodeProfile:
    mode = mode.lower()
    if mode not in CODES:
        raise InvalidAlpha(f"unknown mode {mode!r}")
    F = field_new(q)
    kap = kappa(q, m)
    alpha, kk, d, A, B = _layer_params(mode, q, kap, alpha, k)

    xs = [group_x_value(F, g) for g in range(q * q)]
    lam_poly = select_delta(F, xs, alpha, mode, seed)

    return CodeProfile(
        mode=mode, q=q, m=m, alpha=alpha, k=kk, lam_poly=lam_poly, seed=seed,
        kappa=kap, d=d, A=A, B=B, field=F,
    )


def _layer_params(mode, q, kap, alpha, k):
    """Validate alpha (and k) and derive (alpha, k, d, A, B) for a mode."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != q:
        raise InvalidAlpha(f"need {q} layer sizes, got {len(alpha)}")
    if any(alpha[i] <= alpha[i + 1] for i in range(q - 1)):
        raise InvalidAlpha(f"alpha {alpha} not strictly decreasing")
    if alpha[-1] < 1:
        raise InvalidAlpha("alpha entries must be positive")
    for i, a in enumerate(alpha):
        if a > kap[i]:
            raise InvalidAlpha(f"alpha_{i}={a} exceeds kappa({i})={kap[i]}")

    if mode == "msr":
        d = tuple(2 * a for a in alpha)
        kk = tuple(a + 1 for a in alpha)
        if k is not None and tuple(k) != kk:
            raise InvalidK("MSR fixes k_l = alpha_l + 1")
    else:
        if k is None:
            raise InvalidK("MBR requires the k sequence")
        kk = tuple(int(v) for v in k)
        if len(kk) != q:
            raise InvalidK(f"need {q} k values, got {len(kk)}")
        if any(not 0 < kk[i] <= alpha[i] for i in range(q)):
            raise InvalidK(f"k {kk} violates 0 < k_i <= alpha_i")
        if any(kk[i] < kk[i + 1] for i in range(q - 1)):
            raise InvalidK(f"k {kk} must be non-increasing for staged requests")
        d = alpha

    # recovery mode decodes a length-(q^2 - 1) word of dimension d_0
    if d[0] > q * q - 2:
        raise InvalidAlpha(f"d_0={d[0]} exceeds q^2-2={q * q - 2}")

    A = math.lcm(*alpha)
    if mode == "msr":
        B = A * sum(a + 1 for a in alpha)
    else:
        twice = sum((A // a) * kk[i] * (2 * a - kk[i] + 1) for i, a in enumerate(alpha))
        assert twice % 2 == 0
        B = twice // 2
    return alpha, kk, d, A, B


# -- message layout ------------------------------------------------------------


def _layout_tables(profile):
    """The message layout of both codes as index tables (forward, inverse).

    Block t of layer l has an S and a T part: MSR's symmetric alpha_l x
    alpha_l, filled S parts first (layers, then blocks, ascending), then T
    parts; MBR's S symmetric k_l x k_l and T k_l x (alpha_l - k_l), filled
    block by block.  A symmetric part takes its upper triangle row-major.
    forward[l] is layer l's [S, T] as message indices, the blocks side by
    side, an array('I') per row; the array('I') inverse holds each index's
    first position in forward's rows read in order.
    """
    msr = profile.mode == "msr"
    shapes = [((a, a, True),) * 2 if msr else ((k, k, True), (k, a - k, False))
              for a, k in zip(profile.alpha, profile.k)]
    # part p of layer l starts at read position starts[2l + p]
    starts = list(accumulate((r * c * profile.blocks(l) for l, parts in
                              enumerate(shapes) for r, c, _ in parts), initial=0))
    forward, inverse, n = [[None, None] for _ in shapes], array("I"), 0
    for fill in ((0,), (1,)) if msr else ((0, 1),):
        for l, parts in enumerate(shapes):
            w = profile.blocks(l)
            run = [(p, parts[p][1], *_block_part(*parts[p], w, starts[2 * l + p]))
                   for p in fill]
            stride = sum(len(firsts) for *_, firsts in run)   # symbols per block
            for p, _, M, firsts in run:
                forward[l][p] = [array("I", [b + o for b in range(
                    n, n + stride * w, stride) for o in row]) for row in M]
                n += len(firsts)
            n += stride * (w - 1)
            inverse.extend([x + t * c for t in range(w)
                            for _, c, _, firsts in run for x in firsts])
    return forward, inverse


def _block_part(r, c, symmetric, w, start):
    """An r x c part, w side by side read from ``start``: block 0's entries
    as offsets into its run of the message, and each offset's first position."""
    cells = [(i, j) for i in range(r) for j in range(i if symmetric else 0, c)]
    at = {cell: n for n, cell in enumerate(cells)}
    return ([[at[(j, i) if symmetric and j < i else (i, j)] for j in range(c)]
             for i in range(r)], [start + i * w * c + j for i, j in cells])


# -- coefficient selection ---------------------------------------------------


def _phi_rows(F, xs, a):
    rows = []
    for x in xs:
        row, v = [], 1
        for _ in range(a):
            row.append(v)
            v = F.mul(v, x)
        rows.append(row)
    return rows


def _power_columns(F, xs, width):
    """Row t holds x_g^t for every node g, packed for ``Field.comb``: the
    values of a polynomial of degree below ``width`` at every node are one
    comb of its coefficients."""
    return F.pack(transpose(_phi_rows(F, xs, width)), len(xs))


def _meets_rules(vals, a, a0):
    """Whether a width-a layer's values vals[g] = lambda(x_g) meet the fibre
    rule (no value at more than 1 + a0 - a nodes, a0 = alpha_0) and the
    window rule (distinct at nodes 0 .. a + 2)."""
    window = vals[:a + 3]
    return (len(set(window)) == len(window)
            and max(map(vals.count, set(vals))) <= 1 + a0 - a)


def select_delta(F: Field, xs, alpha, mode: str, seed: int) -> tuple:
    """Each layer's lambda_l as coefficients, lowest first: the first fit
    under the fibre and window rules of the module docstring.

    MBR carries no lambda: ().  For MSR, layer l takes x^alpha_l when it
    meets both rules, else the first of up to MAX_LAMBDA_DRAWS monic
    polynomials of degree alpha_l whose lower coefficients are drawn from
    Random(seed), one stream for all layers; LambdaSearchFailed names the
    layer that none fits.  Any such lambda_l makes every d_l rows of Psi_l
    regular, so no window is checked.
    """
    if mode == "mbr":
        return ()
    n = len(xs)
    cols = _power_columns(F, xs, alpha[0] + 1)
    rng = random.Random(seed)
    out = []
    for l, a in enumerate(alpha):
        poly, draws = [0] * a + [1], 0
        while not _meets_rules(F.comb(poly, cols, n), a, alpha[0]):
            if draws == MAX_LAMBDA_DRAWS:
                raise LambdaSearchFailed(
                    f"layer {l}: neither x^{a} nor {MAX_LAMBDA_DRAWS} drawn "
                    f"monic polynomials of degree {a} take each value at most "
                    f"{1 + alpha[0] - a} times and are distinct at nodes "
                    f"0..{a + 2} (q={F.q}, alpha={tuple(alpha)})")
            draws += 1
            poly = [rng.randrange(F.order) for _ in range(a)] + [1]
        out.append(tuple(poly))
    return tuple(out)


# -- serialization ------------------------------------------------------------


def _int_seq(text):
    return tuple(int(v) for v in text.split(","))


def _layer_seqs(text):
    return tuple(map(_int_seq, text.split(";")))


# The profile document's keys in their canonical (sorted) order, each with
# the parser of its value; a sequence is written comma-separated, and
# lam_poly (MSR only) holds one sequence per layer, separated by ";".
_PROFILE_KEYS = {
    "A": int, "B": int, "alpha": _int_seq, "d": _int_seq, "k": _int_seq,
    "kappa": _int_seq, "lam_poly": _layer_seqs, "m": int, "mode": str,
    "q": int, "seed": int,
}


def _keys(mode):
    return [key for key in _PROFILE_KEYS if key != "lam_poly" or mode == "msr"]


def profile_to_text(profile: CodeProfile) -> str:
    """Canonical key=value document: sorted keys, one per line, LF endings."""
    lines = []
    for key in _keys(profile.mode):
        val = getattr(profile, key)
        if _PROFILE_KEYS[key] is _int_seq:
            val = ",".join(map(str, val))
        elif key == "lam_poly":
            val = ";".join(",".join(map(str, c)) for c in val)
        lines.append(f"{key}={val}\n")
    return "".join(lines)


def profile_from_text(text: str) -> CodeProfile:
    """Parse a profile document and re-check every derived field.

    Missing, unparsable or inconsistent keys raise InvalidParams; alpha and k
    go through the same rules as ``profile_new``.  An MSR lam_poly must hold
    a monic polynomial of degree alpha_l per layer that meets the fibre and
    window rules; it is checked, never re-selected.  A document with the
    single coefficient permutation ``lam=`` of earlier versions is refused:
    its node files were encoded with other coefficients.
    """
    kv = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, _, val = line.partition("=")
        kv[key] = val
    if "lam" in kv:
        raise InvalidParams("profile holds lam=, the one coefficient "
                            "permutation of earlier versions; this version "
                            "reads per-layer lam_poly= (make a new profile "
                            "and encode again)")
    keys = _keys(kv.get("mode"))
    missing = [key for key in keys if key not in kv]
    if missing:
        raise InvalidParams(f"profile lacks {', '.join(missing)}")
    try:
        vals = {key: _PROFILE_KEYS[key](kv[key]) for key in keys}
    except ValueError as exc:
        raise InvalidParams(f"unparsable profile value: {exc}") from None
    mode, q = vals["mode"], vals["q"]
    if mode not in CODES:
        raise InvalidParams(f"unknown profile mode {mode!r}")
    F = field_new(q)
    kap = kappa(q, vals["m"])
    alpha, k, d, A, B = _layer_params(mode, q, kap, vals["alpha"], vals["k"])
    derived = {"kappa": kap, "alpha": alpha, "k": k, "d": d, "A": A, "B": B}
    for key, want in derived.items():
        if vals[key] != want:
            raise InvalidParams(f"profile {key}={vals[key]} does not match "
                                f"the derived {want}")
    polys = vals.setdefault("lam_poly", ())
    if mode == "msr" and (len(polys) != q or any(
            len(c) != a + 1 or c[-1] != 1 or not set(c) <= set(range(F.order))
            for c, a in zip(polys, alpha))):
        raise InvalidParams("profile lam_poly needs, per layer l, the "
                            "alpha_l + 1 coefficients of a monic "
                            "polynomial over the field, lowest first")
    profile = CodeProfile(field=F, **vals)
    for l, (vals_l, a) in enumerate(zip(profile.lam, alpha)):
        if not _meets_rules(vals_l, a, alpha[0]):
            raise InvalidParams(f"profile lam_poly layer {l} breaks the "
                                "fibre or window rule")
    return profile


def profile_digest(profile: CodeProfile) -> bytes:
    """First 8 bytes of SHA-256 over the canonical document."""
    return hashlib.sha256(profile_to_text(profile).encode()).digest()[:8]
