"""JSON interchange: games, economies, formulas, sequents, proof trees.

Rationals travel as "p/q" strings (or bare integer strings) so nothing is
ever rounded.  Formulas are nested tagged objects; atoms carry coalition
keys in the game-file format ("1,3").  Payoff payloads inside atoms are
integer grid units internally; on the wire they appear as exact rationals
(unit 1/n, where n is the vector length).  Economy atoms carry bundles,
serialized as pairs of rational strings.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .errors import InvalidInputError
from .games import Coalition, TUGame
from .replica import Allocation, EdgeworthEconomy, ReplicaEconomy
from .logic import (
    Ach,
    And,
    Bel,
    Formula,
    FormulaSet,
    Geq,
    Implies,
    Not,
    Or,
    ProofTree,
    Rule,
    RuleMeta,
    ThoughtSequent,
)

# ---------------------------------------------------------------------------
# rationals


def rational_to_str(value) -> str:
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def rational_from_str(text) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise InvalidInputError(f"expected a rational string, got {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise InvalidInputError(f"bad rational: {text!r}") from None


# ---------------------------------------------------------------------------
# games


def game_to_obj(game: TUGame) -> dict:
    return {
        "players": game.n,
        "bound": game.bound,
        "v": {str(s): v for s, v in game.items()},
    }


def game_from_obj(obj: Any) -> TUGame:
    if not isinstance(obj, dict):
        raise InvalidInputError("game file must hold a JSON object")
    unknown = set(obj) - {"players", "bound", "v"}
    if unknown:
        raise InvalidInputError(f"unknown game field: {sorted(unknown)[0]!r}")
    try:
        n = obj["players"]
        worth = obj["v"]
    except KeyError as e:
        raise InvalidInputError(f"game file needs field {e.args[0]!r}") from None
    if not isinstance(n, int) or n < 1:
        raise InvalidInputError("players must be a positive integer")
    if not isinstance(worth, dict):
        raise InvalidInputError('"v" must map coalition keys to integer worths')
    for key, value in worth.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidInputError(f"worth of {key!r} must be an integer")
    bound = obj.get("bound")
    if bound is not None and (not isinstance(bound, int) or isinstance(bound, bool)):
        raise InvalidInputError("bound must be an integer")
    # from_values enumerates all 2^n - 1 coalitions to name the first missing
    # one; past 16 players count the worths first, without building 2^n
    if n > 16 and (len(worth) + 1).bit_length() <= n:
        raise InvalidInputError(
            f"missing coalition values: {n} players need 2^{n} - 1, got {len(worth)}")
    return TUGame.from_values(n, worth, bound=bound)


def load_game(path: str) -> TUGame:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise InvalidInputError(
                f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    return game_from_obj(obj)


# ---------------------------------------------------------------------------
# economies


def economy_to_obj(economy: ReplicaEconomy) -> dict:
    base = economy.base
    return {"utility": base.utility,
            "rho": rational_to_str(base.rho),
            "grid_denominator": base.grid_denominator,
            "replicas": economy.k}


def economy_from_obj(obj: Any) -> ReplicaEconomy:
    if not isinstance(obj, dict):
        raise InvalidInputError("economy config must hold a JSON object")
    unknown = set(obj) - {"utility", "rho", "grid_denominator", "replicas"}
    if unknown:
        raise InvalidInputError(f"unknown economy field: {sorted(unknown)[0]!r}")
    if "grid_denominator" not in obj:
        raise InvalidInputError('economy config needs field "grid_denominator"')
    den = obj["grid_denominator"]
    if not isinstance(den, int) or isinstance(den, bool):
        raise InvalidInputError("grid_denominator must be an integer")
    k = obj.get("replicas", 1)
    if not isinstance(k, int) or isinstance(k, bool):
        raise InvalidInputError("replicas must be an integer")
    base = EdgeworthEconomy(den,
                            utility=obj.get("utility", "ces"),
                            rho=rational_from_str(obj.get("rho", "1/2")))
    return ReplicaEconomy(base, k)


def load_economy(path: str) -> ReplicaEconomy:
    return economy_from_obj(load_json(path))


def allocation_to_obj(x: Allocation) -> list:
    return [[rational_to_str(c) for c in bundle] for bundle in x.bundles]


# ---------------------------------------------------------------------------
# vectors
#
# Game payloads are tuples of integer grid units (unit 1/n); economy payloads
# are tuples of bundles, each bundle a tuple of exact rationals.


def payload_to_obj(vec: tuple) -> list:
    if all(isinstance(v, int) for v in vec):
        n = len(vec)
        return [rational_to_str(Fraction(u, n)) for u in vec]
    return [[rational_to_str(c) for c in bundle] for bundle in vec]


def payload_from_obj(obj: Any) -> tuple:
    if not isinstance(obj, list) or not obj:
        raise InvalidInputError("vector must be a nonempty array")
    if isinstance(obj[0], list):
        out = []
        for bundle in obj:
            if not isinstance(bundle, list):
                raise InvalidInputError("vector mixes array and scalar entries")
            out.append(tuple(rational_from_str(c) for c in bundle))
        return tuple(out)
    n = len(obj)
    units = []
    for s in obj:
        q = rational_from_str(s) * n
        if q.denominator != 1 or q < 0:
            raise InvalidInputError(f"entry {s!r} is off the 1/{n} grid")
        units.append(int(q))
    return tuple(units)


# ---------------------------------------------------------------------------
# formulas


def formula_to_obj(f: Formula) -> dict:
    t = type(f)
    if t is Ach:
        return {"t": "ach", "coalition": str(f.coalition), "vector": payload_to_obj(f.vector)}
    if t is Geq:
        return {"t": "geq",
                "left": payload_to_obj(f.left), "left_tag": str(f.left_tag),
                "over": str(f.over),
                "right": payload_to_obj(f.right), "right_tag": str(f.right_tag)}
    if t is Not:
        return {"t": "not", "child": formula_to_obj(f.child)}
    if t is And:
        return {"t": "and", "members": [formula_to_obj(m) for m in f.members]}
    if t is Or:
        return {"t": "or", "members": [formula_to_obj(m) for m in f.members]}
    if t is Implies:
        return {"t": "implies", "lhs": formula_to_obj(f.lhs), "rhs": formula_to_obj(f.rhs)}
    if t is Bel:
        return {"t": "bel", "agent": f.agent, "child": formula_to_obj(f.child)}
    raise InvalidInputError(f"unknown formula type: {t.__name__}")


def formula_from_obj(obj: Any) -> Formula:
    if not isinstance(obj, dict) or "t" not in obj:
        raise InvalidInputError("formula must be a tagged object")
    t = obj["t"]
    try:
        if t == "ach":
            return Ach(payload_from_obj(obj["vector"]), Coalition.parse(obj["coalition"]))
        if t == "geq":
            left = payload_from_obj(obj["left"])
            right = payload_from_obj(obj["right"])
            if len(left) != len(right) or type(left[0]) is not type(right[0]):
                raise InvalidInputError("geq compares payloads of different shapes")
            # the kernel reads both payloads at every member of `over`
            over = Coalition.parse(obj["over"])
            if over.members[-1] > len(left):
                raise InvalidInputError(f"coalition {over} exceeds the payload length")
            return Geq(left, Coalition.parse(obj["left_tag"]), over,
                       right, Coalition.parse(obj["right_tag"]))
        if t == "not":
            return Not(formula_from_obj(obj["child"]))
        if t == "and":
            return And([formula_from_obj(m) for m in _array(obj, "members")])
        if t == "or":
            return Or([formula_from_obj(m) for m in _array(obj, "members")])
        if t == "implies":
            return Implies(formula_from_obj(obj["lhs"]), formula_from_obj(obj["rhs"]))
        if t == "bel":
            return Bel(_agent(obj["agent"]), formula_from_obj(obj["child"]))
    except KeyError as e:
        raise InvalidInputError(f"{t!r} formula needs field {e.args[0]!r}") from None
    raise InvalidInputError(f"unknown formula tag: {t!r}")


def _agent(value: Any) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise InvalidInputError(f"agent ids are positive integers, got {value!r}")
    return value


def _array(obj: dict, name: str) -> list:
    value = obj.get(name, [])
    if not isinstance(value, list):
        raise InvalidInputError(f"{name!r} must be an array")
    return value


# ---------------------------------------------------------------------------
# sequents and proofs


def sequent_to_obj(seq: ThoughtSequent) -> dict:
    ante = sorted(seq.ante, key=lambda f: f.key())
    succ = sorted(seq.succ, key=lambda f: f.key())
    return {"prefix": list(seq.prefix),
            "ante": [formula_to_obj(f) for f in ante],
            "succ": [formula_to_obj(f) for f in succ]}


def sequent_from_obj(obj: Any) -> ThoughtSequent:
    if not isinstance(obj, dict):
        raise InvalidInputError("sequent must be an object")
    return ThoughtSequent(
        tuple(map(_agent, _array(obj, "prefix"))),
        FormulaSet.of(formula_from_obj(f) for f in _array(obj, "ante")),
        FormulaSet.of(formula_from_obj(f) for f in _array(obj, "succ")))


def _meta_to_obj(meta: RuleMeta) -> dict:
    out = {}
    if meta.principal is not None:
        out["principal"] = formula_to_obj(meta.principal)
    if meta.member is not None:
        out["member"] = formula_to_obj(meta.member)
    if meta.cut is not None:
        out["cut"] = formula_to_obj(meta.cut)
    if meta.agent is not None:
        out["agent"] = meta.agent
    return out


def _meta_from_obj(obj: Any) -> RuleMeta:
    if not isinstance(obj, dict):
        raise InvalidInputError("proof meta must be an object")
    return RuleMeta(
        principal=formula_from_obj(obj["principal"]) if "principal" in obj else None,
        member=formula_from_obj(obj["member"]) if "member" in obj else None,
        cut=formula_from_obj(obj["cut"]) if "cut" in obj else None,
        agent=_agent(obj["agent"]) if "agent" in obj else None)


def proof_to_obj(tree: ProofTree) -> dict:
    out = {"sequent": sequent_to_obj(tree.sequent), "rule": tree.rule.value}
    if tree.meta is not None:
        m = _meta_to_obj(tree.meta)
        if m:
            out["meta"] = m
    out["children"] = [proof_to_obj(c) for c in tree.children]
    return out


def proof_from_obj(obj: Any) -> ProofTree:
    if not isinstance(obj, dict) or "sequent" not in obj or "rule" not in obj:
        raise InvalidInputError("proof node must carry a sequent and a rule tag")
    try:
        rule = Rule(obj["rule"])
    except ValueError:
        raise InvalidInputError(f"unknown rule tag: {obj['rule']!r}") from None
    meta = _meta_from_obj(obj["meta"]) if "meta" in obj else None
    children = tuple(proof_from_obj(c) for c in _array(obj, "children"))
    return ProofTree(sequent_from_obj(obj["sequent"]), rule, children, meta)


def dump_json(obj: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise InvalidInputError(
                f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
