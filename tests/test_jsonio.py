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
    acceptability,
    InvalidInputError,
    PayoffVector,
    TUGame,
    decide,
    emit_proof,
)
from epicore.acceptability import MAX_GRID_VECTORS
from epicore.games import all_coalitions
from epicore.jsonio import (
    allocation_to_obj,
    dump_json,
    economy_from_obj,
    economy_to_obj,
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
)
from epicore.logic import (
    EMPTY_SET,
    Ach,
    Bel,
    FormulaSet,
    Geq,
    Implies,
    Not,
    ProofTree,
    Rule,
    RuleMeta,
    ThoughtSequent,
    check_proof,
    strict_gain,
)
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


@pytest.mark.parametrize("bad", ["", "1/0", "a/b", "1.5.2", [], {"p": 1}, True, False])
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
    {"players": True, "v": {"1": 3}},
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
    assert economy_to_obj(econ)["rho"] == "1/2"


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


@pytest.mark.parametrize("obj", ["3", ["1/2", "x"], [["1", "2"], "3"], [], None,
                                 [True, "0"], [["0", False]]])
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


def axiom(f, prefix=()) -> ProofTree:
    return ProofTree(ThoughtSequent(prefix, EMPTY_SET, FormulaSet.of((f,))),
                     Rule.NonLogicalAxiom)


def test_formula_round_trip():
    for f in sample_formulas():
        (back,) = proof_from_obj(proof_to_obj(axiom(f))).sequent.succ
        assert back == f


def test_formula_row_rejects_unknown_tag():
    obj = proof_to_obj(axiom(sample_formulas()[0]))
    obj["formulas"][-1] = {"op": "xor", "args": []}
    with pytest.raises(InvalidInputError):
        proof_from_obj(obj)


def test_sequent_round_trip():
    g = small_game()
    proof = emit_proof(g, 1, [Coalition.parse("1")], PayoffVector.of(0, 3))
    seq = proof.sequent
    back = proof_from_obj(proof_to_obj(proof)).sequent
    assert back.prefix == seq.prefix
    assert frozenset(back.ante) == frozenset(seq.ante)
    assert frozenset(back.succ) == frozenset(seq.succ)


def test_proof_obj_shape():
    # a weakening over one comparison axiom: every vector, formula and base
    # is a row of its own table, and nodes refer to rows by index
    c1, c12 = Coalition.of(1), Coalition.of(1, 2)
    geq = Geq((2, 1), c12, c1, (1, 0), c1)
    ach = Ach((1, 0), c1)
    base = frozenset((ach, Not(ach)))
    tree = ProofTree(ThoughtSequent((1,), FormulaSet.layered(base), FormulaSet.of((geq,))),
                     Rule.Th, (axiom(geq, (1,)),))
    assert proof_to_obj(tree) == {
        "vectors": [["1", "1/2"], ["1/2", "0"]],
        "formulas": [
            {"t": "geq", "left": 0, "left_tag": "1,2", "over": "1",
             "right": 1, "right_tag": "1"},
            {"t": "ach", "coalition": "1", "vector": 1},
            {"t": "not", "child": 1},
        ],
        "sets": [[1, 2]],
        "nodes": [
            {"prefix": [1], "ante": {"delta": []}, "succ": {"delta": [0]},
             "rule": "NonLogicalAxiom"},
            {"prefix": [1], "ante": {"base": 0, "delta": []}, "succ": {"delta": [0]},
             "rule": "Th", "children": [0]},
        ],
    }


def test_proof_obj_ignores_set_iteration_order():
    # equal sets built in opposite orders may iterate differently; the
    # file must not
    g = TUGame.from_values(2, {"1": 3, "2": 3, "1,2": 3})
    proof = emit_proof(g, 1, [Coalition.parse("1")], PayoffVector.of(1, 1))
    members = sorted(proof.sequent.ante, key=lambda f: f.key())
    assert list(frozenset(members)) != list(frozenset(members[::-1]))
    for order in (members, members[::-1]):
        seq = ThoughtSequent(proof.sequent.prefix, FormulaSet.layered(frozenset(order)),
                             proof.sequent.succ)
        again = ProofTree(seq, proof.rule, proof.children, proof.meta)
        assert proof_to_obj(again) == proof_to_obj(proof)


def test_reloaded_sides_share_their_base():
    g = TUGame.from_values(2, {"1": 1, "2": 1, "1,2": 2})
    obj = proof_to_obj(emit_proof(g, 1, [Coalition.parse("1,2")], PayoffVector.of(1, 1)))
    assert len(obj["sets"]) == 1
    # every formula is written once
    assert len({json.dumps(row, sort_keys=True) for row in obj["formulas"]}) \
        == len(obj["formulas"])
    proof = proof_from_obj(obj)
    bases, stack = set(), [proof]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        bases.update(id(s.base) for s in (node.sequent.ante, node.sequent.succ)
                     if s.base is not None)
    assert len(bases) == 1


def test_proof_round_trip_is_stable():
    # No structural equality on trees: serialize, parse, serialize again and
    # compare the JSON forms.
    g = small_game()
    x = PayoffVector.of(0, 3)
    proof = emit_proof(g, 1, [Coalition.parse("1")], x)
    obj = proof_to_obj(proof)
    again = proof_to_obj(proof_from_obj(obj))
    assert json.dumps(obj, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_implication_and_belief_proof_round_trips_through_a_file(tmp_path):
    # B[a -> b -> a -> b] by ImpRight over modus ponens (ImpLeft), where
    # a = Bel(1, geq) and the leaf a -> a comes by EpistemicDist
    c1, c12 = Coalition.of(1), Coalition.of(1, 2)
    geq = Geq((1, 0), c12, c1, (0, 0), c12)
    a, b = Bel(1, geq), Ach((1, 0), c12)
    imp = Implies(a, b)

    def node(ante, succ, rule, children=(), meta=None, prefix=()):
        return ProofTree(ThoughtSequent(prefix, FormulaSet.of(ante), FormulaSet.of(succ)),
                         rule, tuple(children), meta)

    a_to_a = node([a], [a], Rule.EpistemicDist,
                  [node([geq], [geq], Rule.LogicalAxiom, prefix=(1,))], RuleMeta(agent=1))
    left = node([a], [b, a], Rule.Th, [a_to_a])
    right = node([b, a], [b], Rule.Th, [node([b], [b], Rule.LogicalAxiom)])
    mp = node([imp, a], [b], Rule.ImpLeft, [left, right], RuleMeta(principal=imp))
    proof = node([imp], [imp], Rule.ImpRight, [mp], RuleMeta(principal=imp))
    assert check_proof(proof)

    obj = proof_to_obj(proof)
    assert {row["t"] for row in obj["formulas"]} >= {"implies", "bel"}
    assert {"agent": 1} in [row.get("meta") for row in obj["nodes"]]
    path = str(tmp_path / "proof.json")
    dump_json(obj, path)
    reloaded = proof_from_obj(load_json(path))
    assert check_proof(reloaded)
    assert proof_to_obj(reloaded) == obj


@pytest.mark.parametrize("n, bound", [(3, 8), (4, 2)])
def test_largest_grid_rejection_proofs_reload(n, bound):
    # the largest grids the size guard admits for 3 and 4 players: every
    # proof `prove` can write there must load again
    assert (bound * n + 1) ** n <= MAX_GRID_VECTORS < ((bound + 1) * n + 1) ** n
    grand = all_coalitions(n)[-1]
    g = TUGame.from_values(n, {str(s): (bound - 1 if s == grand else 0)
                               for s in all_coalitions(n)}, bound=bound)
    x = PayoffVector.of(*[0] * n)
    assert not decide(g, 1, [grand], x).acceptable
    try:
        proof = emit_proof(g, 1, [grand], x)
        reloaded = proof_from_obj(proof_to_obj(proof))
        assert reloaded.sequent.ante == proof.sequent.ante
        assert reloaded.sequent.succ == proof.sequent.succ
        assert check_proof(reloaded).ok
    finally:
        acceptability._purge_spaces()


# ---------------------------------------------------------------------------
# loader invariants: how rows become formulas


def _one_node_file(vectors, formulas, ante, succ, rule="LogicalAxiom"):
    return {"vectors": vectors, "formulas": formulas, "sets": [],
            "nodes": [{"prefix": [], "ante": {"delta": ante}, "succ": {"delta": succ},
                       "rule": rule}]}


def _row_geq(left, right):
    return {"t": "geq", "left": left, "left_tag": "1,2", "over": "1",
            "right": right, "right_tag": "1"}


def test_equal_rows_over_duplicated_vectors_load_as_one_formula():
    # rows 0 and 1 name equal payloads through different vector rows, and
    # row 2 spells coalition "1,2" as "2,1"
    vectors = [["1", "0"], ["1/2", "0"], ["1", "0"]]
    formulas = [_row_geq(0, 1), _row_geq(2, 1), dict(_row_geq(0, 1), left_tag="2,1"),
                {"t": "not", "child": 0}, {"t": "not", "child": 1},
                {"t": "not", "child": 2}]
    proof = proof_from_obj(_one_node_file(vectors, formulas, [3, 4, 5], [3]))
    (ante,), (succ,) = proof.sequent.ante, proof.sequent.succ
    assert ante is succ
    assert ante.child == Geq((2, 0), Coalition.of(1, 2), Coalition.of(1), (1, 0),
                             Coalition.of(1))
    assert check_proof(proof).ok


@pytest.mark.parametrize("members", [[1, 0], [1, 0, 1], [0, 1, 1, 0], [1, 1, 0, 0]])
def test_junction_rows_load_in_canonical_order(members):
    # a junction listed out of order or with repeats loads as the one
    # canonical formula, the same object as the canonical row before it
    formulas = [_row_geq(0, 1), {"t": "not", "child": 0},
                {"t": "and", "members": [0, 1]}, {"t": "and", "members": members}]
    proof = proof_from_obj(_one_node_file([["1", "0"], ["1/2", "0"]], formulas, [2], [3]))
    (ante,), (succ,) = proof.sequent.ante, proof.sequent.succ
    assert succ is ante
    geq = Geq((2, 0), Coalition.of(1, 2), Coalition.of(1), (1, 0), Coalition.of(1))
    assert succ.members == (geq, Not(geq))


def test_loaded_junctions_sort_members_by_formula_key():
    # one disjunction over every kind of formula, listed in reverse: the
    # loader orders members by the keys it builds, which must be key()
    formulas = [{"t": "ach", "coalition": "1,2", "vector": 0}, _row_geq(0, 1),
                {"t": "not", "child": 1}, {"t": "and", "members": [2, 1]},
                {"t": "or", "members": [0, 2]}, {"t": "implies", "lhs": 0, "rhs": 1},
                {"t": "bel", "agent": 2, "child": 0}, {"t": "ach", "coalition": "1", "vector": 1}]
    formulas.append({"t": "or", "members": list(range(len(formulas)))[::-1]})
    proof = proof_from_obj(_one_node_file([["1", "0"], ["1/2", "0"]], formulas,
                                          [len(formulas) - 1], [len(formulas) - 1]))
    (big,) = proof.sequent.succ
    assert len(big.members) == len(formulas) - 1
    assert list(big.members) == sorted(big.members, key=lambda f: f.key())


def test_junction_of_payloads_of_different_kinds_is_refused():
    formulas = [{"t": "ach", "coalition": "1", "vector": 0},
                {"t": "ach", "coalition": "1", "vector": 1},
                {"t": "or", "members": [0, 1]}]
    with pytest.raises(InvalidInputError, match="vector 1 differs in length or kind"):
        proof_from_obj(_one_node_file([["1", "0"], [["1", "0"]]], formulas, [2], [2]))


def test_side_over_payloads_of_different_kinds_is_refused():
    # grid units and bundles compare differently, so a file that holds both
    # has no single meaning; the refusal comes before any formula is read
    obj = {"vectors": [["1", "0"], [["1", "0"]]],
           "formulas": [{"t": "ach", "coalition": "1", "vector": 0},
                        {"t": "ach", "coalition": "1", "vector": 1}],
           "sets": [],
           "nodes": [{"prefix": [], "ante": {"delta": [0]}, "succ": {"delta": [0]},
                      "rule": "LogicalAxiom"},
                     {"prefix": [], "ante": {"delta": [1, 0]}, "succ": {"delta": [0]},
                      "rule": "Th", "children": [0]}]}
    with pytest.raises(InvalidInputError, match="vector 1 differs in length or kind"):
        proof_from_obj(obj)
    obj["vectors"][1] = ["1", "0", "0"]
    with pytest.raises(InvalidInputError, match="vector 1 differs in length or kind"):
        proof_from_obj(obj)


@pytest.mark.parametrize("repeats, refused", [(48, False), (49, True)])
def test_junction_expansion_is_charged_to_the_budget(repeats, refused):
    # 2 formula rows + 1 node row give a budget of 3 * 16 reads; a member
    # named `repeats` times expands to that many nodes, even though the
    # loaded conjunction holds it once
    formulas = [_row_geq(0, 1), {"t": "and", "members": [0] * repeats}]
    obj = _one_node_file([["1", "0"], ["1/2", "0"]], formulas, [1], [1])
    if refused:
        with pytest.raises(InvalidInputError, match="expand to more than 16"):
            proof_from_obj(obj)
    else:
        (f,) = proof_from_obj(obj).sequent.succ
        assert len(f.members) == 1


def test_rational_with_an_exponent_is_refused():
    # 1e999999999 would expand to an integer of a billion digits
    with pytest.raises(InvalidInputError, match="bad rational"):
        payload_from_obj(["1e999999999", "0"])
    with pytest.raises(InvalidInputError, match="bad rational"):
        rational_from_str("5E-1")


def test_proof_from_obj_rejects_unknown_rule():
    g = small_game()
    x = PayoffVector.of(0, 3)
    obj = proof_to_obj(emit_proof(g, 1, [Coalition.parse("1")], x))
    obj["nodes"][-1]["rule"] = "ModusPonens"
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
