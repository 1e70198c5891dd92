"""Code profiles: layered encoding matrices, the coefficient diagonal, and
their selection/verification.

Layer l (0 <= l < q) carries a Vandermonde matrix Phi_l (q^2 x alpha_l) whose
row g is [1, x_g, ..., x_g^(alpha_l - 1)] with the same x_g convention as the
point table.  MSR additionally uses Psi_l = [Phi_l, Delta*Phi_l] where Delta
is a diagonal of q^2 pairwise-distinct coefficients lambda_g.

Coefficient selection: pairwise-distinct lambda over the whole field is
required throughout (the reconstruction extractor divides by lambda_i -
lambda_j).  The stronger wish -- every d_l-subset of Psi_l independent, for
all layers at once -- provably has no solution at these field sizes (see
verify_delta, which reports honestly).  select_delta therefore guarantees the
*operational* family instead: every helper window that plain/detect repair
can actually solve with (any single failed node, ascending-id staging) is
invertible, and among candidate draws the one with the fewest sampled
singular subsets wins.  Those windows are the d_l-subsets of rows 0..d_l and
of rows 1..d_l+1, so each layer is checked by the left null vectors of those
two (d_l + 1) x d_l base windows.

Both tests run on small Hankel matrices, never on rows of Psi_l: for a set S
of 2 alpha_l + e rows (e = 0 or 1), the left null space of Psi_l[S] is
{(w_i f(x_i))_{i in S} : f in null(K_S)}, w_i = 1 / prod_{j != i} (x_i - x_j),
with K_S the alpha_l x (alpha_l + e) Hankel matrix of the moments
sum_i w_i lambda_i x_i^s.  This is exact for any lambda because Phi_l is
Vandermonde at pairwise-distinct x-values (``_HankelForm`` has the proof).
"""

from __future__ import annotations

import hashlib
import math
import random
from array import array
from dataclasses import dataclass, field as dfield
from functools import cached_property
from itertools import accumulate, combinations

from .curve import PointTable, enumerate_points, group_x_value, kappa
from .errors import (
    DeltaSearchFailed,
    InvalidAlpha,
    InvalidK,
    InvalidParams,
)
from .field import Field, field_new
from .linalg import det_nonzero, null_space, transpose

MAX_DELTA_DRAWS = 512
_SCORED_PASSERS = 3
_SCORE_SAMPLES = 200
EXHAUSTIVE_MINOR_CAP = 10**6
SAMPLED_MINORS_PER_LAYER = 10**5
CODES = ("msr", "mbr")


@dataclass(eq=False)
class CodeProfile:
    mode: str                # "msr" | "mbr"
    q: int
    m: int
    alpha: tuple
    k: tuple
    lam: tuple
    seed: int
    kappa: tuple
    d: tuple
    A: int
    B: int
    field: Field = dfield(repr=False)
    points: PointTable = dfield(repr=False, init=False)

    def __post_init__(self):
        self.points = enumerate_points(self.field)
        self._phi = {}
        self._xs = [group_x_value(self.field, g) for g in range(self.q * self.q)]

    # -- encoding matrices -------------------------------------------------

    def x_value(self, g: int) -> int:
        return self._xs[g]

    def mu_row(self, g: int, l: int):
        """Row g of Phi_l."""
        return self.phi(l)[g]

    def nu_row(self, g: int, l: int):
        """Row g of [Phi_l, Delta*Phi_l] (MSR encoding vector of node g)."""
        mu = self.mu_row(g, l)
        return mu + self.field.scale(self.lam[g], mu)

    def phi(self, l: int):
        if l not in self._phi:
            self._phi[l] = _phi_rows(self.field, self._xs, self.alpha[l])
        return self._phi[l]

    def blocks(self, l: int) -> int:
        return self.A // self.alpha[l]

    @cached_property
    def layout(self):
        """The message layout's index tables (``_layout_tables``)."""
        return _layout_tables(self)

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
    lam = select_delta(F, xs, alpha, d, mode, seed)

    return CodeProfile(
        mode=mode, q=q, m=m, alpha=alpha, k=kk, lam=lam, seed=seed,
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


def _psi_rows(F, phi, lam):
    return [row + F.scale(lam[g], row) for g, row in enumerate(phi)]


class _HankelForm:
    """The alpha x (alpha + e) Hankel form of 2 alpha + e rows of a layer's psi.

    For rows S of [Phi, Lambda Phi] at pairwise-distinct x-values, take
    w_i = 1 / prod_{j in S, j != i} (x_i - x_j).  Sum_i w_i p(x_i) = 0 for
    every p of degree below |S| - 1 (the leading coefficient of the
    interpolant of p on S), and the vectors (w_i f(x_i)) with deg f < alpha + e
    are |S| - alpha independent ones of them, so they are exactly the left
    null space of Phi[S] (a GRS dual code).  Such a vector also annihilates
    Lambda Phi[S] exactly when f's coefficients c satisfy
    sum_t c_t H_{s+t} = 0 for s < alpha, with the moments
    H_s = sum_i w_i lambda_i x_i^s.  So the left null space of psi[S] is
    {(w_i f(x_i))_{i in S} : f in null(K_S)}, K_S[s][t] = H_{s+t}, and f -> h is
    one-to-one.  This holds for any lambda.

    Built once per selection: a table of log(x_i - x_j), the nodes' power
    rows packed per width, and each base window's evaluation columns.
    """

    def __init__(self, F, xs):
        assert len(set(xs)) == len(xs), "x-values must be pairwise distinct"
        self.F, self.xs = F, xs
        self._log_diff = [[F.log(F.sub(xi, xj)) if i != j else 0
                           for j, xj in enumerate(xs)] for i, xi in enumerate(xs)]
        self._powers = {}    # width -> every node's [1, x, .., x^(width-1)], packed
        self._columns = {}   # (a, start) -> [x_i^t for i in the window], t <= a, packed

    def hankel(self, lam, rows, a):
        """K_S for the rows S = ``rows`` (2a or 2a + 1 of them) of width a."""
        F, e = self.F, len(rows) - 2 * a
        width = 2 * a - 1 + e
        powers = self._powers.get(width)
        if powers is None:
            powers = self._powers[width] = F.pack(
                _phi_rows(F, self.xs, width), width)
        # w_i lambda_i through logs: log lambda_i - sum_j log(x_i - x_j),
        # where the diagonal entry j = i of the table is 0
        coeffs = [lam[i] and F.exp(F.log(lam[i]) - sum(
            map(self._log_diff[i].__getitem__, rows))) for i in rows]
        H = F.comb(coeffs, [powers[i] for i in rows], width)
        return [H[s:s + a + e] for s in range(a)]

    def windows_ok(self, lam, a):
        """True iff every single-failure repair window of a layer of width a
        is regular.

        A plan takes the lowest live ids, so with one node failed the windows
        are exactly the d-subsets (d = 2a <= q^2 - 2) of rows 0..d and of rows
        1..d+1.  The d-subsets of a (d+1) x d matrix W are all regular exactly
        when its left null space is one vector h with no zero entry: if
        rank W < d, the null space has dimension at least 2 and every d rows
        are dependent; if rank W = d, it is spanned by h, and the rows other
        than z are dependent exactly when h_z = 0.  Through the Hankel form,
        h_i = w_i f(x_i) with w_i != 0: the null space of K_S must be one f,
        and f must not vanish on the window's x-values.
        """
        F, d = self.F, 2 * a
        for start in (0, 1):
            rows = range(start, start + d + 1)
            f = null_space(F, self.hankel(lam, rows, a))
            if len(f) != 1:
                return False
            cols = self._columns.get((a, start))
            if cols is None:
                cols = self._columns[a, start] = F.pack(transpose(
                    _phi_rows(F, self.xs[start:start + d + 1], a + 1)), d + 1)
            if not all(F.comb(f[0], cols, d + 1)):
                return False
        return True


def select_delta(F: Field, xs, alpha, d, mode: str, seed: int) -> tuple:
    """Seeded draw of a distinct coefficient assignment.

    MBR never multiplies by Delta during decoding, so any permutation works.
    MSR additionally requires every staged repair window to be invertible
    (``_HankelForm.windows_ok``); among the first few accepted draws the one
    with the fewest sampled singular d_l-subsets is kept.  A d_l-subset S of
    psi_l is regular exactly when its alpha_l x alpha_l Hankel form K_S is,
    since their left null spaces correspond one to one; so both tests run on
    alpha x alpha matrices and the draw loop never builds a psi row.
    """
    n = F.order
    rng = random.Random(seed)
    if mode == "mbr":
        lam = list(range(n))
        rng.shuffle(lam)
        return tuple(lam)

    form = _HankelForm(F, xs)
    passers = []
    for _ in range(MAX_DELTA_DRAWS):
        lam = list(range(n))
        rng.shuffle(lam)
        if all(form.windows_ok(lam, a) for a in alpha):
            passers.append(tuple(lam))
            if len(passers) == _SCORED_PASSERS:
                break
    if not passers:
        raise DeltaSearchFailed(
            f"no coefficient assignment passed the window checks in "
            f"{MAX_DELTA_DRAWS} draws (q={F.q}, alpha={tuple(alpha)})"
        )
    if len(passers) == 1:
        return passers[0]
    scorer = random.Random(seed ^ 0x5EED)
    best = None
    for lam in passers:
        score = 0
        for a, dl in zip(alpha, d):
            for _ in range(_SCORE_SAMPLES):
                sub = scorer.sample(range(n), dl)
                if not det_nonzero(F, form.hankel(lam, sub, a)):
                    score += 1
        if best is None or score < best[0]:
            best = (score, lam)
    return best[1]


@dataclass
class DeltaReport:
    criterion_i: bool
    criterion_ii: bool
    method: str                      # "exhaustive" | "sampled"
    first_failing_subset: tuple | None   # (layer, node ids) or None
    singular_counts: dict            # layer -> (bad, checked)
    operational: bool                # all staged repair windows invertible


def verify_delta(profile: CodeProfile, lam=None) -> DeltaReport:
    """Full independence report for an MSR profile (or an override lambda).

    criterion (i): all q^2 coefficients distinct.  criterion (ii): every
    d_l-subset of [Phi_l, Delta*Phi_l] independent -- checked exhaustively
    when the total subset count is at most 10^6, sampled otherwise.  At the
    supported field sizes criterion (ii) does not hold for any assignment;
    the report exists to make that visible, with the failing witness.
    """
    assert profile.mode == "msr", "verify_delta applies to MSR profiles"
    F = profile.field
    lam = tuple(profile.lam if lam is None else lam)
    n = profile.n_nodes
    crit_i = len(set(lam)) == n

    total = sum(math.comb(n, dl) for dl in profile.d)
    exhaustive = total <= EXHAUSTIVE_MINOR_CAP
    rng = random.Random(profile.seed ^ 0xA5A5)

    crit_ii = True
    witness = None
    counts = {}
    for l, dl in enumerate(profile.d):
        psi = _psi_rows(F, profile.phi(l), lam)
        bad = checked = 0
        if exhaustive:
            subsets = combinations(range(n), dl)
        else:
            subsets = (
                tuple(sorted(rng.sample(range(n), dl)))
                for _ in range(SAMPLED_MINORS_PER_LAYER)
            )
        for sub in subsets:
            checked += 1
            if not det_nonzero(F, [psi[g] for g in sub]):
                bad += 1
                if witness is None:
                    witness = (l, tuple(sub))
                crit_ii = False
        counts[l] = (bad, checked)

    form = _HankelForm(F, profile._xs)
    operational = all(form.windows_ok(lam, a) for a in profile.alpha)
    return DeltaReport(
        criterion_i=crit_i,
        criterion_ii=crit_i and crit_ii,
        method="exhaustive" if exhaustive else "sampled",
        first_failing_subset=witness,
        singular_counts=counts,
        operational=operational,
    )


# -- serialization ------------------------------------------------------------


def _int_seq(text):
    return tuple(int(v) for v in text.split(","))


# The profile document's keys in their canonical (sorted) order, each with
# the parser of its value; a sequence is written comma-separated.
_PROFILE_KEYS = {
    "A": int, "B": int, "alpha": _int_seq, "d": _int_seq, "k": _int_seq,
    "kappa": _int_seq, "lam": _int_seq, "m": int, "mode": str, "q": int,
    "seed": int,
}


def profile_to_text(profile: CodeProfile) -> str:
    """Canonical key=value document: sorted keys, one per line, LF endings."""
    lines = []
    for key, parse in _PROFILE_KEYS.items():
        val = getattr(profile, key)
        if parse is _int_seq:
            val = ",".join(map(str, val))
        lines.append(f"{key}={val}\n")
    return "".join(lines)


def profile_from_text(text: str) -> CodeProfile:
    """Parse a profile document and re-check every derived field.

    Missing, unparsable or inconsistent keys raise InvalidParams; alpha and k
    go through the same rules as ``profile_new``.  The coefficient draw is
    only checked to be a permutation of the field, never re-selected.
    """
    kv = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, _, val = line.partition("=")
        kv[key] = val
    missing = [key for key in _PROFILE_KEYS if key not in kv]
    if missing:
        raise InvalidParams(f"profile lacks {', '.join(missing)}")
    try:
        vals = {key: parse(kv[key]) for key, parse in _PROFILE_KEYS.items()}
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
    if sorted(vals["lam"]) != list(range(F.order)):
        raise InvalidParams("profile lam is not a permutation of the "
                            f"{F.order} field elements")
    return CodeProfile(field=F, **vals)


def profile_digest(profile: CodeProfile) -> bytes:
    """First 8 bytes of SHA-256 over the canonical document."""
    return hashlib.sha256(profile_to_text(profile).encode()).digest()[:8]
