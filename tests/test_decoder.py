import random
from itertools import combinations

import pytest

from hrgc import decoder
from hrgc.decoder import ERASED, DecodeResult, decode
from hrgc.errors import DecodeFailure, SingularSystem
from hrgc.field import field_new
from hrgc.linalg import mat_vec


def vandermonde(F, n, k):
    xs = [F.exp(i) for i in range(n)] if n < F.order else list(range(n))
    return [[F.pow(x, j) for j in range(k)] for x in xs], xs


def all_codewords(F, G):
    k = len(G[0])
    words = {}
    stack = [[]]
    for _ in range(k):
        stack = [s + [v] for s in stack for v in range(F.order)]
    for msg in stack:
        words[tuple(mat_vec(F, G, msg))] = list(msg)
    return words


def nearest_codewords(F, codewords, received):
    """Brute-force oracle: codewords minimizing mismatches on usable positions."""
    best, hits = None, []
    for cw in codewords:
        dist = sum(
            1 for a, b in zip(cw, received)
            if b is not ERASED and a != b
        )
        if best is None or dist < best:
            best, hits = dist, [cw]
        elif dist == best:
            hits.append(cw)
    return best, hits


def test_clean_word_round_trip():
    F = field_new(3)
    G, xs = vandermonde(F, 7, 3)
    msg = [4, 1, 7]
    cw = mat_vec(F, G, msg)
    res = decode(F, G, cw)
    assert res.message == msg
    assert res.error_positions == frozenset()
    assert mat_vec(F, G, res.message) == cw


@pytest.mark.parametrize("use_points", [False, True])
def test_exhaustive_supports_n8_k2(use_points):
    """Every erasure/error support within the budget recovers exactly."""
    F = field_new(3)
    n, k = 8, 2
    G, xs = vandermonde(F, n, k)
    pts = xs if use_points else None
    rng = random.Random(17)
    msg = [3, 8]
    cw = mat_vec(F, G, msg)
    for sigma in range(0, n - k + 1):
        for tau in range(0, (n - k - sigma) // 2 + 1):
            for erasures in combinations(range(n), sigma):
                rest = [i for i in range(n) if i not in erasures]
                for errors in combinations(rest, tau):
                    reps = 20 if sigma + tau <= 1 else 3
                    for _ in range(reps):
                        word = list(cw)
                        for i in erasures:
                            word[i] = ERASED
                        actual = set()
                        for i in errors:
                            e = rng.randrange(1, 9)
                            word[i] = F.add(word[i], e)
                            actual.add(i)
                        res = decode(F, G, word, points=pts)
                        assert res.message == msg
                        assert res.error_positions == frozenset(actual)


def test_oracle_agreement_sampled():
    # decode agrees with the brute-force nearest-codeword search
    F = field_new(3)
    rng = random.Random(23)
    for n, k in ((6, 2), (7, 3), (9, 3)):
        G, xs = vandermonde(F, n, k)
        codewords = list(all_codewords(F, G))
        for _ in range(60):
            msg = [rng.randrange(9) for _ in range(k)]
            cw = mat_vec(F, G, msg)
            sigma = rng.randrange(0, n - k + 1)
            tau = rng.randrange(0, (n - k - sigma) // 2 + 1)
            pos = list(range(n))
            rng.shuffle(pos)
            word = list(cw)
            for i in pos[:sigma]:
                word[i] = ERASED
            for i in pos[sigma:sigma + tau]:
                word[i] = F.add(word[i], rng.randrange(1, 9))
            best, hits = nearest_codewords(F, codewords, word)
            res = decode(F, G, word)
            res_pts = decode(F, G, word, points=xs)
            assert res.message == msg == res_pts.message
            assert len(hits) == 1
            assert tuple(mat_vec(F, G, res.message)) == tuple(hits[0])
            assert best == len(res.error_positions)


def test_beyond_budget_no_silent_postcondition_violation():
    # sigma + 2 tau = n - k + 1: failure or some consistent word, never a crash
    F = field_new(3)
    G, xs = vandermonde(F, 8, 2)
    msg = [2, 5]
    cw = mat_vec(F, G, msg)
    rng = random.Random(31)
    outcomes = set()
    for _ in range(50):
        word = list(cw)
        hit = rng.sample(range(8), 4)
        word[hit[0]] = ERASED
        for i in hit[1:]:
            word[i] = F.add(word[i], rng.randrange(1, 9))
        try:
            decode(F, G, word, tau_max=3)
            outcomes.add("decoded")
        except DecodeFailure:
            outcomes.add("failed")
    assert outcomes  # either outcome is acceptable; no silent contract break


def test_decode_deterministic():
    F = field_new(4)
    G, xs = vandermonde(F, 10, 4)
    msg = [1, 7, 0, 9]
    cw = mat_vec(F, G, msg)
    word = list(cw)
    word[2] = F.add(word[2], 5)
    word[7] = ERASED
    a = decode(F, G, word)
    b = decode(F, G, word)
    assert a.message == b.message
    assert a.error_positions == b.error_positions


def test_too_many_erasures():
    F = field_new(3)
    G, _ = vandermonde(F, 5, 3)
    word = [ERASED, ERASED, ERASED, 1, 2]
    with pytest.raises(DecodeFailure):
        decode(F, G, word)


def _stacked_word(F):
    """Stacked [mu | lam*mu] rows over GF(9) and a codeword of them with an
    error at position 6: (generator, word, message)."""
    rng = random.Random(41)
    lam = list(range(9))
    rng.shuffle(lam)
    xs = [0] + [F.exp(i) for i in range(8)]
    G = []
    for g in range(9):
        mu = [F.pow(xs[g], j) for j in range(2)]
        G.append(mu + [F.mul(lam[g], v) for v in mu])
    msg = [1, 2, 3, 4]
    word = mat_vec(F, G, msg)
    word[6] = F.add(word[6], 4)
    return G, word, msg


def test_generic_path_on_non_polynomial_generator():
    # stacked [mu | lam*mu] rows are not monomial evaluations; only the
    # generic path applies and must still honor the guarantee
    F = field_new(3)
    G, word, msg = _stacked_word(F)
    res = decode(F, G, word)
    assert res.message == msg
    assert res.error_positions == {6}


def _search_only(F, G, word, tau_max=None, points=None):
    """decode without the codeword exit: the error search plus the same
    input checks and post-check."""
    n, k = len(G), len(G[0])
    erased = frozenset(i for i, v in enumerate(word) if v is ERASED)
    pos = [i for i in range(n) if i not in erased]
    if len(pos) < k:
        raise DecodeFailure(f"only {len(pos)} usable positions for dimension {k}")
    if tau_max is None:
        tau_max = max(0, (len(pos) - k) // 2)
    r = [word[i] for i in pos]
    if points is not None:
        msg = decoder._decode_wb(F, k, [points[i] for i in pos], r, tau_max)
    else:
        msg = decoder._decode_generic(F, [G[i] for i in pos], r, k, tau_max)
    cw = mat_vec(F, G, msg)
    errors = frozenset(i for i in pos if word[i] != cw[i])
    if len(errors) > tau_max:
        raise DecodeFailure(f"{len(errors)} mismatches exceed tau_max={tau_max}")
    return DecodeResult(message=msg, error_positions=errors)


def _outcome(fn, F, G, *args, **kwargs):
    try:
        r = fn(F, G, *args, **kwargs)
    except DecodeFailure as exc:
        return type(exc).__name__, str(exc)
    return r.message, mat_vec(F, G, r.message), r.error_positions


def _generators(F, rng, n, k):
    """(name, G, points) triples: Vandermonde with and without points, the
    stacked [mu | lam*mu] rows of an MSR layer, and a random matrix."""
    xs = rng.sample(range(F.order), n)
    vdm = [[F.pow(x, j) for j in range(k)] for x in xs]
    half = max(1, k // 2)
    lam = rng.sample(range(F.order), n)
    stacked = [[F.pow(x, j) for j in range(half)]
               + [F.mul(lam[g], F.pow(x, j)) for j in range(half)]
               for g, x in enumerate(xs)]
    dense = [[rng.randrange(F.order) for _ in range(k)] for _ in range(n)]
    return [("vdm+points", vdm, xs), ("vdm", vdm, None),
            ("stacked", stacked, None), ("dense", dense, None)]


@pytest.mark.parametrize("q", [3, 4, 5])
def test_codeword_exit_matches_the_error_search(q):
    F = field_new(q)
    rng = random.Random(100 + q)
    seen = set()
    for _ in range(12):
        n = rng.randrange(5, min(F.order, 10) + 1)
        k = rng.randrange(2, n - 2)
        for name, G, points in _generators(F, rng, n, k):
            kk = len(G[0])
            slack = n - kk
            cw = mat_vec(F, G, [rng.randrange(F.order) for _ in range(kk)])
            # (erasures, errors): clean, erasures only, within the budget,
            # and one past it
            cases = [(0, 0), (rng.randrange(1, slack + 1), 0),
                     (slack % 2, slack // 2), (slack - 1, 1),
                     ((slack + 1) % 2, (slack + 1) // 2), (slack - 1, 2)]
            for sigma, tau in cases:
                if sigma < 0 or sigma + tau > n:
                    continue
                for tau_max in (None, tau, max(0, tau - 1), -1):
                    idx = rng.sample(range(n), sigma + tau)
                    word = list(cw)
                    for i in idx[:sigma]:
                        word[i] = ERASED
                    for i in idx[sigma:]:
                        word[i] = F.add(word[i], rng.randrange(1, F.order))
                    want = _outcome(_search_only, F, G, word, tau_max, points)
                    got = _outcome(decode, F, G, word, tau_max, points)
                    assert got == want, (name, n, kk, sigma, tau, tau_max)
                    seen.add((name, len(want) == 2, tau == 0))
    # every generator decoded clean words and erroneous words, and failed
    for name in ("vdm+points", "vdm", "stacked", "dense"):
        assert {(name, False, True), (name, False, False),
                (name, True, False)} <= seen, name


def test_clean_word_with_erasures_skips_the_error_search(monkeypatch):
    F = field_new(4)
    G, xs = vandermonde(F, 12, 4)
    msg = [3, 0, 11, 6]
    word = mat_vec(F, G, msg)
    for i in (0, 5, 9):
        word[i] = ERASED

    def refuse(*args):
        raise AssertionError("the error search ran on a codeword")

    monkeypatch.setattr(decoder, "null_space", refuse)
    monkeypatch.setattr(decoder, "left_null_space", refuse)
    for points in (xs, None):
        res = decode(F, G, word, points=points)
        assert res.message == msg
        assert res.error_positions == frozenset()


def test_only_a_singular_message_solve_becomes_a_decode_failure(monkeypatch):
    # the error search ends in _solve_message; a rank deficit there is a
    # decode failure, any other exception is a fault that must surface
    F = field_new(3)
    G, word, _ = _stacked_word(F)

    def singular(*args):
        raise SingularSystem("rank 3 < 4")

    def broken(*args):
        raise TypeError("broken solver")

    monkeypatch.setattr(decoder, "solve_least_index", singular)
    with pytest.raises(DecodeFailure, match="rank 3 < 4"):
        decode(F, G, word)
    monkeypatch.setattr(decoder, "solve_least_index", broken)
    with pytest.raises(TypeError, match="broken solver"):
        decode(F, G, word)


# -- the suspect exit ------------------------------------------------------------


def test_suspect_exit_skips_welch_berlekamp(monkeypatch):
    """Errors all among the suspects: no interpolation solve, the same
    result.  One error outside them: the solve runs."""
    F = field_new(4)
    G, xs = vandermonde(F, 15, 6)
    msg = [3, 0, 11, 6, 1, 9]
    word = mat_vec(F, G, msg)
    word[1] = ERASED
    for i in (4, 10):
        word[i] = F.add(word[i], 5)
    want = decode(F, G, word, points=xs)
    assert want.message == msg and want.error_positions == {4, 10}

    calls = []
    real = decoder._decode_wb

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(decoder, "_decode_wb", counting)
    for suspects in ({4, 10}, {1, 4, 7, 10}, {0, 4, 10, 14}):
        res = decode(F, G, word, points=xs, suspects=frozenset(suspects))
        assert res == want and calls == [], suspects
    # a suspect set past tau_max = 4, or one that misses an error
    for suspects in ({0, 2, 4, 10, 14}, {4, 7}):
        calls.clear()
        assert decode(F, G, word, points=xs, suspects=frozenset(suspects)) == want
        assert len(calls) == 1, suspects


def test_suspect_exit_never_changes_the_result():
    """decode with any suspects returns the message, errors and erasures of
    decode without them, or fails with the same text.  The words are
    Vandermonde words over GF(9), GF(16) or GF(25) with random erasures and
    errors (inside and beyond the radius), tau_max is the default, below or
    above it, and the suspects are a subset, a superset or disjoint from
    the errors, or any set."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def cases(draw):
        F = field_new(draw(st.sampled_from([3, 4, 5])))
        n = draw(st.integers(2, F.order - 1))
        k = draw(st.integers(1, n - 1))
        xs = draw(st.permutations(range(F.order)))[:n]
        G = [[F.pow(x, j) for j in range(k)] for x in xs]
        word = mat_vec(F, G, draw(st.lists(st.integers(0, F.order - 1),
                                           min_size=k, max_size=k)))
        order = draw(st.permutations(range(n)))
        sigma = draw(st.integers(0, n - 1))
        weight = draw(st.integers(0, n - sigma))
        errors = set(order[sigma:sigma + weight])
        for i in order[:sigma]:
            word[i] = ERASED
        for i in errors:
            word[i] = F.add(word[i], draw(st.integers(1, F.order - 1)))
        tau_max = draw(st.one_of(st.none(), st.integers(-1, n)))
        other = draw(st.sets(st.integers(0, n - 1)))
        kind = draw(st.sampled_from(["subset", "superset", "disjoint", "any"]))
        suspects = {"subset": errors & other, "superset": errors | other,
                    "disjoint": other - errors, "any": other}[kind]
        return F, G, xs, word, tau_max, frozenset(suspects)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        F, G, xs, word, tau_max, suspects = case
        assert (_outcome(decode, F, G, word, tau_max, xs, suspects=suspects)
                == _outcome(decode, F, G, word, tau_max, xs))

    check()


# -- the support search as the oracle of MSR repair words -------------------------


def _decoded(call):
    try:
        return call()
    except DecodeFailure:
        return "DecodeFailure"


@pytest.mark.parametrize("prof_name,layers", [
    ("q3_msr", (0, 1, 2)), ("q4_msr", (0, 1, 2, 3)), ("q5_msr", (0,))])
def test_msr_repair_words_welch_berlekamp_matches_the_support_search(
        prof_name, layers, request):
    """An MSR repair word (node g's help symbol nu_g [a; b]) decoded two
    ways: by Welch-Berlekamp as the Reed-Solomon word of f = a + lambda_l b,
    reduced mod lambda_l - lambda_l(x_g) at every node g (the repair's
    ``_lambda_divisor``), and by the support search (``decode`` without
    points: the codeword exit, then ``_decode_generic``) on the nu rows
    themselves, whose [a; b] gives a + lambda_l(x_g) b at every node; two
    lambda_l values fix [a; b].  From 0 errors up to the radius
    floor((q^2 - 1 - d_l)/2) both return the planted message and error
    positions; one error past it, both return the same or both fail
    explicitly.  (q5_msr's wider layers are left out: the search over their
    radius takes minutes.)"""
    from hrgc import hmsr
    p = request.getfixturevalue(prof_name)
    F, n = p.field, p.n_nodes
    rng = random.Random(prof_name)
    z = rng.randrange(n)
    others = [g for g in range(n) if g != z]
    xs = [p.x_value(g) for g in others]
    for l in layers:
        d, a = p.d[l], p.alpha[l]
        assert len(set(p.lam[l])) > 1

        def reduced(f):
            return [decoder._poly_divmod(F, f,
                                         hmsr._lambda_divisor(p, g, l))[1]
                    for g in range(n)]

        def mixed(ab):
            return [F.axpy(ab[:a], p.lam[l][g], ab[a:]) for g in range(n)]
        nu = [p.nu_row(g, l) for g in others]
        mono = [p.powers(d)[g] for g in others]
        radius = (n - 1 - d) // 2
        for errors in range(radius + 2):
            x = [rng.randrange(F.order) for _ in range(d)]
            word = mat_vec(F, nu, x)
            planted = frozenset(rng.sample(range(n - 1), errors))
            for i in planted:
                word[i] = F.add(word[i], rng.randrange(1, F.order))
            wb = _decoded(lambda: decode(F, mono, word, points=xs))
            if wb != "DecodeFailure":
                wb = (reduced(wb.message), wb.error_positions)
            search = _decoded(lambda: decode(F, nu, word))
            if search != "DecodeFailure":
                search = (mixed(search.message), search.error_positions)
            assert wb == search, (l, errors)
            if errors <= radius:
                assert wb == (mixed(x), planted), (l, errors)
