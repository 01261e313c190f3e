"""Tests for coalitions, payoff grids, games, core, and blocking witnesses.

Expected values for the two-player running game are frozen; generated cases
are cross-checked against the brute-force oracles at the top of this file,
which deliberately use nothing from the package beyond input construction.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicore import (
    Coalition,
    InvalidInputError,
    PayoffVector,
    TUGame,
    UnsupportedSizeError,
    all_coalitions,
    blocking_witness,
    core_membership,
    dominates,
    enumerate_integer_core,
)
from epicore.games import grid_units


# ---------------------------------------------------------------------------
# independent oracles (raw ints and itertools only)


def oracle_subsets(n):
    out = []
    for size in range(1, n + 1):
        for c in combinations(range(1, n + 1), size):
            out.append(c)
    return out


def oracle_integer_core(n, worth):
    """worth: dict mapping player-id tuple -> int.  Returns sorted tuples."""
    grand = tuple(range(1, n + 1))
    vn = worth[grand]
    points = []
    for x in product(range(vn + 1), repeat=n):
        if sum(x) != vn:
            continue
        ok = True
        for c in oracle_subsets(n):
            if sum(x[p - 1] for p in c) < worth[c]:
                ok = False
                break
        if ok:
            points.append(x)
    points.sort()
    return points


def oracle_first_deficit(n, worth, x):
    """First coalition (by size, then members) whose worth exceeds its share."""
    for c in sorted(oracle_subsets(n), key=lambda c: (len(c), c)):
        if sum(x[p - 1] for p in c) < worth[c]:
            return c
    return None


# ---------------------------------------------------------------------------
# fixtures


def two_player_game():
    return TUGame.from_values(2, {"1": 10, "2": 10, "1,2": 30})


def worth_dict(game):
    return {tuple(c.members): game.v(c) for c in game.coalitions()}


GAME_STRATEGY = st.integers(2, 3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.tuples(*[st.integers(0, 12) for _ in range(2 ** n - 1)]),
    )
)


def build_game(n, worths):
    cs = all_coalitions(n)
    return TUGame.from_values(n, {str(c): w for c, w in zip(cs, worths)})


# ---------------------------------------------------------------------------
# coalitions and payoff grids


def test_coalition_canonical_order():
    cs = all_coalitions(3)
    assert [str(c) for c in cs] == ["1", "2", "3", "1,2", "1,3", "2,3", "1,2,3"]
    assert sorted([cs[6], cs[0], cs[3]]) == [cs[0], cs[3], cs[6]]


def test_coalition_parse_and_str():
    c = Coalition.parse("3,1")
    assert c == Coalition.of(1, 3)
    assert str(c) == "1,3"
    assert 1 in c and 2 not in c
    with pytest.raises(InvalidInputError):
        Coalition.parse("")
    with pytest.raises(InvalidInputError):
        Coalition.parse("1,1")
    with pytest.raises(InvalidInputError):
        Coalition.of(0)


def test_payoff_vector_grid():
    x = PayoffVector.of(Fraction(19, 2), 0)
    assert x.n == 2
    assert x.units() == (19, 0)
    assert PayoffVector.from_units((19, 0), 2) == x
    assert x.total() == Fraction(19, 2)
    with pytest.raises(InvalidInputError):
        PayoffVector.of(Fraction(1, 3), 0)  # off the half-unit grid for n=2
    with pytest.raises(InvalidInputError):
        PayoffVector.of(-1, 2)


def test_payoff_vector_coalition_sum():
    x = PayoffVector.of(3, 4, 5)
    assert x.coalition_sum(Coalition.of(1, 3)) == 8
    assert x.value_of(2) == 4


# ---------------------------------------------------------------------------
# games


def test_game_requires_every_coalition():
    with pytest.raises(InvalidInputError):
        TUGame.from_values(2, {"1": 1, "2": 1})
    with pytest.raises(InvalidInputError):
        TUGame.from_values(2, {"1": 1, "2": 1, "1,2": 3, "1,3": 0})


def test_game_worths_are_nonnegative_ints():
    with pytest.raises(InvalidInputError):
        TUGame.from_values(2, {"1": -1, "2": 1, "1,2": 3})
    with pytest.raises(InvalidInputError):
        TUGame.from_values(2, {"1": Fraction(1, 2), "2": 1, "1,2": 3})


def test_default_bound_dominates_every_worth():
    g = two_player_game()
    assert g.bound == 61  # one more than twice the largest worth
    assert all(g.v(c) < g.bound for c in g.coalitions())
    with pytest.raises(InvalidInputError):
        TUGame.from_values(2, {"1": 1, "2": 1, "1,2": 5}, bound=5)


# ---------------------------------------------------------------------------
# bounded-sum grids and the core


@pytest.mark.parametrize("m", range(5))
def test_grid_units_matches_product_and_filter(m):
    for cap in range(7):
        want = [t for t in product(range(cap + 1), repeat=m) if sum(t) <= cap]
        got = list(grid_units(m, cap))
        assert got == want, (m, cap)
        assert len(got) == comb(cap + m, m)


def test_grid_units_refuses_before_yielding():
    # C(302, 2) = 45,451 tuples
    with pytest.raises(UnsupportedSizeError, match="45,451 vectors of length 2"):
        next(iter(grid_units(2, 300)))
    assert len(grid_units(2, 198)) == 19_900


def test_two_player_core_frozen():
    g = two_player_game()
    core = enumerate_integer_core(g)
    assert len(core) == 11
    assert core[0] == PayoffVector.of(10, 20)
    assert core[-1] == PayoffVector.of(20, 10)
    assert all(x.total() == 30 for x in core)


def test_core_membership_strict():
    g = two_player_game()
    assert core_membership(g, PayoffVector.of(15, 15))
    assert not core_membership(g, PayoffVector.of(9, 21))        # player 1 short
    assert not core_membership(g, PayoffVector.of(10, 10))       # not efficient
    assert core_membership(g, PayoffVector.of(Fraction(21, 2), Fraction(39, 2)))
    with pytest.raises(InvalidInputError):
        core_membership(g, PayoffVector.of(1, 2, 3))


@settings(max_examples=60, deadline=None)
@given(GAME_STRATEGY)
def test_core_matches_bruteforce(params):
    n, worths = params
    g = build_game(n, worths)
    got = [tuple(int(v) for v in x.entries) for x in enumerate_integer_core(g)]
    assert got == oracle_integer_core(n, worth_dict(g))


# ---------------------------------------------------------------------------
# domination and blocking witnesses


def test_dominates_needs_strict_member():
    g = two_player_game()
    c = Coalition.of(1, 2)
    x = PayoffVector.of(5, 5)
    assert not dominates(g, x, x, c)
    assert dominates(g, PayoffVector.of(5, 6), x, c)
    assert not dominates(g, PayoffVector.of(6, 4), x, c)
    assert dominates(g, PayoffVector.of(6, 4), x, Coalition.of(1))
    # feasibility for the coalition is not part of the predicate
    assert dominates(g, PayoffVector.of(40, 40), x, c)


def test_blocking_witness_frozen():
    g = two_player_game()
    s, y = blocking_witness(g, PayoffVector.of(9, 21))
    assert s == Coalition.of(1)
    assert y == PayoffVector.of(Fraction(19, 2), 0)
    s, y = blocking_witness(g, PayoffVector.of(10, 10))
    assert s == Coalition.of(1, 2)
    assert y == PayoffVector.of(15, 15)
    assert blocking_witness(g, PayoffVector.of(15, 15)) is None


def test_blocking_witness_rejects_bad_inputs():
    g = two_player_game()
    with pytest.raises(InvalidInputError):
        blocking_witness(g, PayoffVector.of(Fraction(19, 2), 0))  # not integral
    with pytest.raises(InvalidInputError):
        blocking_witness(g, PayoffVector.of(20, 20))  # exceeds the grand worth


@settings(max_examples=80, deadline=None)
@given(GAME_STRATEGY, st.data())
def test_blocking_witness_properties(params, data):
    n, worths = params
    g = build_game(n, worths)
    vn = g.v(g.grand)
    xs = data.draw(st.tuples(*[st.integers(0, vn) for _ in range(n)])
                   .filter(lambda t: sum(t) <= vn))
    x = PayoffVector.of(*xs)
    res = blocking_witness(g, x)
    first = oracle_first_deficit(n, worth_dict(g), xs)
    if res is None:
        assert first is None
        assert core_membership(g, x)
    else:
        s, y = res
        assert tuple(s.members) == first
        assert dominates(g, y, x, s)
        assert y.coalition_sum(s) <= g.v(s)
        deficit = g.v(s) - x.coalition_sum(s)
        for p in range(1, n + 1):
            expect = xs[p - 1] + Fraction(deficit, n) if p in s else 0
            assert y.value_of(p) == expect
