"""Shared test-side oracles, written against raw ints only.

Fourier-Motzkin elimination over integer-coefficient inequalities gives an
exact feasibility decision for small linear systems.  It shares no code or
method with the balanced-cover route in the package, so agreement between
the two is meaningful evidence.
"""

import itertools


def fm_feasible(constraints, nvars):
    """constraints: list of (coeffs, rhs) meaning sum(c*x) >= rhs, integer
    coefficients.  True iff a rational solution exists."""
    rows = [(tuple(c), r) for c, r in constraints]
    for j in range(nvars - 1, -1, -1):
        lowers, uppers, rest = [], [], []
        for coeffs, rhs in rows:
            a = coeffs[j]
            if a > 0:
                lowers.append((coeffs, rhs))
            elif a < 0:
                uppers.append((coeffs, rhs))
            else:
                rest.append((coeffs, rhs))
        for (cl, rl), (cu, ru) in itertools.product(lowers, uppers):
            p, q = cl[j], -cu[j]
            coeffs = tuple(q * a + p * b for a, b in zip(cl, cu))
            rest.append((coeffs, q * rl + p * ru))
        rows = rest
    return all(rhs <= 0 for _, rhs in rows)


def rational_core_nonempty(n, worth):
    """worth: frozenset of players -> int.  Exact nonemptiness of
    { x : sum x = v(N), sum_S x >= v(S) } over the rationals."""
    players = range(1, n + 1)
    grand = frozenset(players)
    rows = []
    for s, v in worth.items():
        coeffs = tuple(1 if p in s else 0 for p in players)
        rows.append((coeffs, v))
    ones = (1,) * n
    rows.append((ones, worth[grand]))
    rows.append((tuple(-1 for _ in players), -worth[grand]))
    return fm_feasible(rows, n)


def all_worth_maps(n, max_worth):
    """Every characteristic function with integer worths in [0, max_worth]."""
    coalitions = []
    for r in range(1, n + 1):
        coalitions.extend(frozenset(c)
                          for c in itertools.combinations(range(1, n + 1), r))
    for values in itertools.product(range(max_worth + 1), repeat=len(coalitions)):
        yield dict(zip(coalitions, values))


# ---------------------------------------------------------------------------
# exact CES utility comparison via isqrt intervals
#
# u(x) = x1 + x2 + 2*sqrt(x1*x2) = (sqrt(x1) + sqrt(x2))^2, so bundles order
# by sqrt(x1) + sqrt(x2).  Equality of s + 2*sqrt(p) forms reduces to a
# rationality argument (sqrt(q) - sqrt(p) rational forces perfect squares);
# strict order is then decided by disjoint decimal intervals.

from math import isqrt

_SCALE = 10 ** 30


def _sqrt_interval(n):
    lo = isqrt(n * _SCALE * _SCALE)
    return lo, lo if lo * lo == n * _SCALE * _SCALE else lo + 1


def ces_cmp_units(a, b):
    """Compare u(a) vs u(b) for integer-unit bundles, exactly."""
    sa, pa = a[0] + a[1], a[0] * a[1]
    sb, pb = b[0] + b[1], b[0] * b[1]
    if sa == sb and pa == pb:
        return 0
    d = sa - sb
    ra, rb = isqrt(pa), isqrt(pb)
    if d % 2 == 0 and ra * ra == pa and rb * rb == pb and 2 * (rb - ra) == d:
        return 0
    alo, ahi = _sqrt_interval(pa)
    blo, bhi = _sqrt_interval(pb)
    ulo_a, uhi_a = sa * _SCALE + 2 * alo, sa * _SCALE + 2 * ahi
    ulo_b, uhi_b = sb * _SCALE + 2 * blo, sb * _SCALE + 2 * bhi
    if uhi_a < ulo_b:
        return -1
    if uhi_b < ulo_a:
        return 1
    raise AssertionError(f"interval precision exhausted comparing {a} and {b}")


def _splits(total, members):
    """All ways to hand integer-unit bundles to `members` agents summing to
    the unit pair `total`."""
    if members == 1:
        yield (total,)
        return
    for c1 in range(total[0] + 1):
        for c2 in range(total[1] + 1):
            for rest in _splits((total[0] - c1, total[1] - c2), members - 1):
                yield ((c1, c2),) + rest


def _cmp_cached(a, b, _cache={}):
    key = (a, b)
    out = _cache.get(key)
    if out is None:
        out = _cache[key] = ces_cmp_units(a, b)
    return out


def brute_blocks(k, den, alloc, s):
    """Can coalition s (member indices, the first k of type 1) share out
    its own endowments in integer units so that every member is weakly
    better off than under alloc and one strictly?  Raw enumeration of
    every split, member by member, dropping a prefix that leaves a member
    worse off."""
    ones = sum(1 for agent in s if agent <= k)
    last = len(s) - 1

    def search(i, left, strict):
        own = alloc[s[i] - 1]
        if i == last:
            c = _cmp_cached(left, own)
            return c > 0 or (c == 0 and strict)
        for c1 in range(left[0] + 1):
            for c2 in range(left[1] + 1):
                c = _cmp_cached((c1, c2), own)
                if c >= 0 and search(i + 1, (left[0] - c1, left[1] - c2), strict or c > 0):
                    return True
        return False

    return search(0, (ones * den, (len(s) - ones) * den), False)


def brute_grid_core(k, den, coalitions=None):
    """Grid core by raw enumeration.  Agents are indexed 1..2k, the first k
    of type 1 (endowment (1,0)) and the rest of type 2 (endowment (0,1)).
    coalitions: iterable of member-index tuples; defaults to the two-type
    effective family written out literally for k <= 2."""
    if coalitions is None:
        if k == 1:
            coalitions = [(1,), (2,), (1, 2)]
        elif k == 2:
            coalitions = [(1,), (2,), (3,), (4,),
                          (1, 3), (1, 4), (2, 3), (2, 4),
                          (1, 2, 3), (1, 3, 4),
                          (1, 2, 3, 4)]
        else:
            raise ValueError("literal coalition family only written for k <= 2")
    coalitions = [tuple(s) for s in coalitions]
    core = []
    for alloc in _splits((k * den, k * den), 2 * k):
        if not any(brute_blocks(k, den, alloc, s) for s in coalitions):
            core.append(alloc)
    return core
