"""Serialization round-trips and input rejection.

Every round-trip test builds the in-memory object first, converts through
the JSON object layer, and compares against the original (or against a
second serialization when the type has no structural equality).  Expected
JSON shapes are written out literally so a format drift fails loudly.
"""

import json

import pytest
from fractions import Fraction

from epicore import (
    Coalition,
    InvalidInputError,
    PayoffVector,
    TUGame,
    emit_proof,
)
from epicore.jsonio import (
    allocation_to_obj,
    dump_json,
    economy_from_obj,
    economy_to_obj,
    formula_from_obj,
    formula_to_obj,
    game_from_obj,
    game_to_obj,
    load_economy,
    load_game,
    load_json,
    payload_from_obj,
    payload_to_obj,
    proof_from_obj,
    proof_to_obj,
    rational_from_str,
    rational_to_str,
    sequent_from_obj,
    sequent_to_obj,
)
from epicore.logic import Ach, Geq, Not, strict_gain
from epicore.replica import Allocation, EdgeworthEconomy, ReplicaEconomy


def small_game() -> TUGame:
    return TUGame.from_values(2, {"1": 1, "2": 1, "1,2": 3})


# ---------------------------------------------------------------------------
# rationals


def test_rational_str_round_trip():
    for f in (Fraction(0), Fraction(7), Fraction(-3, 4), Fraction(19, 2)):
        assert rational_from_str(rational_to_str(f)) == f


def test_rational_to_str_integers_have_no_slash():
    assert rational_to_str(Fraction(4)) == "4"
    assert rational_to_str(Fraction(9, 2)) == "9/2"


def test_rational_accepts_plain_numbers():
    assert rational_from_str(5) == Fraction(5)
    assert rational_from_str("10") == Fraction(10)


@pytest.mark.parametrize("bad", ["", "1/0", "a/b", "1.5.2", [], {"p": 1}])
def test_rational_rejects_garbage(bad):
    with pytest.raises(InvalidInputError):
        rational_from_str(bad)


# ---------------------------------------------------------------------------
# games


def test_game_round_trip():
    g = small_game()
    assert game_from_obj(game_to_obj(g)) == g


def test_game_obj_shape():
    obj = game_to_obj(small_game())
    assert obj == {"players": 2, "bound": 7, "v": {"1": 1, "2": 1, "1,2": 3}}


def test_game_from_obj_requires_every_coalition():
    with pytest.raises(InvalidInputError):
        game_from_obj({"players": 2, "v": {"1,2": 3}})


@pytest.mark.parametrize("obj", [
    [],
    {"v": {"1,2": 3}},
    {"players": 2, "v": {"1": 1, "2": 1, "1,2": 3}, "extra": 1},
    {"players": 2, "v": {"1": 0, "2": 0, "1,2": -1}},
    {"players": 2, "v": {"1": 1, "2": 1, "1,2": 3, "3": 1}},
    {"players": 2, "v": {"1": 1, "2": 1, "1,2": "x"}},
    {"players": "two", "v": {}},
])
def test_game_from_obj_rejects_bad_shapes(obj):
    with pytest.raises(InvalidInputError):
        game_from_obj(obj)


def test_load_game_reports_line_and_column(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"players": 2,\n  "v": {,}}\n')
    with pytest.raises(InvalidInputError) as err:
        load_game(str(p))
    assert "line 2" in str(err.value)


def test_load_game_round_trip_through_file(tmp_path):
    p = tmp_path / "g.json"
    dump_json(game_to_obj(small_game()), str(p))
    assert load_game(str(p)) == small_game()


# ---------------------------------------------------------------------------
# economies and allocations


def test_economy_round_trip():
    econ = ReplicaEconomy(EdgeworthEconomy(8), 2)
    assert economy_from_obj(economy_to_obj(econ)) == econ


def test_economy_obj_shape():
    obj = economy_to_obj(ReplicaEconomy(EdgeworthEconomy(4), 3))
    assert obj == {"utility": "ces", "rho": "1/2",
                   "grid_denominator": 4, "replicas": 3}


def test_economy_defaults():
    econ = economy_from_obj({"grid_denominator": 8})
    assert econ.k == 1
    assert econ.base.grid_denominator == 8
    assert econ.base.rho == Fraction(1, 2)


@pytest.mark.parametrize("obj", [
    {"grid_denominator": 8, "utility": "linear"},
    {"grid_denominator": 8, "rho": "1/3"},
    {"grid_denominator": 0},
    {"grid_denominator": 8, "replicas": 0},
    {"grid_denominator": 8, "nope": 1},
    {"replicas": 2},
    [],
])
def test_economy_from_obj_rejects_bad_shapes(obj):
    with pytest.raises(InvalidInputError):
        economy_from_obj(obj)


def test_load_economy(tmp_path):
    p = tmp_path / "e.json"
    dump_json({"utility": "ces", "rho": "1/2",
               "grid_denominator": 8, "replicas": 2}, str(p))
    assert load_economy(str(p)) == ReplicaEconomy(EdgeworthEconomy(8), 2)


def test_allocation_round_trip():
    x = Allocation(((Fraction(1, 2), Fraction(1, 2)),
                    (Fraction(1, 2), Fraction(1, 2))))
    assert allocation_to_obj(x) == [["1/2", "1/2"], ["1/2", "1/2"]]


# ---------------------------------------------------------------------------
# payoff vectors and payloads


def test_payload_units_round_trip():
    vec = (0, 3, 17)
    assert payload_from_obj(payload_to_obj(vec)) == vec


def test_payload_bundles_round_trip():
    vec = ((Fraction(1, 2), Fraction(3, 8)), (Fraction(0), Fraction(1)))
    assert payload_from_obj(payload_to_obj(vec)) == vec


@pytest.mark.parametrize("obj", ["3", ["1/2", "x"], [["1", "2"], "3"], [], None])
def test_payload_from_obj_rejects_bad_shapes(obj):
    with pytest.raises(InvalidInputError):
        payload_from_obj(obj)


# ---------------------------------------------------------------------------
# formulas, sequents, proofs


def sample_formulas():
    c1, c12 = Coalition.of(1), Coalition.of(1, 2)
    ach = Ach((2, 1), c12)
    geq = Geq((2, 1), c12, c1, (1, 0), c1)
    return [
        ach,
        geq,
        Not(geq),
        strict_gain((2, 1), c12, 1, (1, 0), c1),
        Not(Not(ach)),
    ]


def test_formula_round_trip():
    for f in sample_formulas():
        assert formula_from_obj(formula_to_obj(f)) == f


def test_formula_from_obj_rejects_unknown_tag():
    with pytest.raises(InvalidInputError):
        formula_from_obj({"op": "xor", "args": []})


def test_sequent_round_trip():
    g = small_game()
    proof = emit_proof(g, 1, [Coalition.parse("1")], PayoffVector.of(0, 3))
    seq = proof.sequent
    back = sequent_from_obj(sequent_to_obj(seq))
    assert back.prefix == seq.prefix
    assert frozenset(back.ante) == frozenset(seq.ante)
    assert frozenset(back.succ) == frozenset(seq.succ)


def test_proof_round_trip_is_stable():
    # No structural equality on trees: serialize, parse, serialize again and
    # compare the JSON forms.
    g = small_game()
    x = PayoffVector.of(0, 3)
    proof = emit_proof(g, 1, [Coalition.parse("1")], x)
    obj = proof_to_obj(proof)
    again = proof_to_obj(proof_from_obj(obj))
    assert json.dumps(obj, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_proof_from_obj_rejects_unknown_rule():
    g = small_game()
    x = PayoffVector.of(0, 3)
    obj = proof_to_obj(emit_proof(g, 1, [Coalition.parse("1")], x))
    obj["rule"] = "ModusPonens"
    with pytest.raises(InvalidInputError):
        proof_from_obj(obj)


def test_dump_json_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    obj = game_to_obj(small_game())
    dump_json(obj, str(a))
    dump_json(obj, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_load_json_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_json(str(tmp_path / "absent.json"))
