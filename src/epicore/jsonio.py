"""JSON interchange: games, economies and proof trees.

Rationals travel as "p/q" strings (or bare integer strings) so nothing is
ever rounded.  A proof file is a set of flat tables (see "proofs" below);
formulas are tagged objects in one of them, and atoms carry coalition keys
in the game-file format ("1,3").  Payoff payloads inside atoms are integer
grid units internally; on the wire they appear as exact rationals (unit
1/n, where n is the vector length).  Economy atoms carry bundles,
serialized as pairs of rational strings.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
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
    return game_from_obj(load_json(path))


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
# proofs
#
# A proof file holds four flat tables, and every reference is a row index:
#
#   vectors   each distinct payload once, as above
#   formulas  each distinct formula once, as a tagged object whose children
#             are earlier formula rows and whose payloads are vector rows
#   sets      each base formula set once, as formula ids
#   nodes     one row per proof-tree node in post-order, root last: prefix,
#             each side as {"base": set id, "delta": [formula ids]} ("base"
#             absent on a flat side), rule, optional meta (formula ids and an
#             agent) and child node ids.  Every row but the root is the
#             child of exactly one later row, so the rows spell a tree.
#
# Reading builds every formula once and every layered side on the one
# shared base object, so the kernel runs its delta paths on loaded proofs.

# What a proof file may ask the reader to do.  Emitted proofs and their
# formulas are at most 7 deep.  Beyond reading its own rows, loading and
# checking a file may cost WORK_PER_ENTRY formula reads per entry (formula
# row, set member or node row), so that naming a shared row many times
# cannot make a short file slow to check; emitted files use at most about
# 2 per entry on every grid.
MAX_FORMULA_DEPTH = 64
MAX_PROOF_DEPTH = 64
WORK_PER_ENTRY = 16

_FORMULA_FIELDS = {
    "ach": ("coalition", "vector"),
    "geq": ("left", "left_tag", "over", "right", "right_tag"),
    "not": ("child",),
    "and": ("members",),
    "or": ("members",),
    "implies": ("lhs", "rhs"),
    "bel": ("agent", "child"),
}
_META_FORMULAS = ("principal", "member", "cut")


class _Tables:
    """The vector, formula and set tables of one file being written; each
    distinct entry gets one row, children before parents."""

    def __init__(self):
        self.vectors: list = []
        self.formulas: list = []
        self.sets: list = []
        self._vector_ids: dict = {}
        self._formula_ids: dict = {}
        self._set_ids: dict = {}

    def vector(self, vec: tuple) -> int:
        k = self._vector_ids.get(vec)
        if k is None:
            k = self._vector_ids[vec] = len(self.vectors)
            self.vectors.append(payload_to_obj(vec))
        return k

    def formula(self, f: Formula) -> int:
        k = self._formula_ids.get(f)
        if k is None:
            row = self._formula_row(f)
            k = self._formula_ids[f] = len(self.formulas)
            self.formulas.append(row)
        return k

    def _formula_row(self, f: Formula) -> dict:
        t = type(f)
        if t is Ach:
            return {"t": "ach", "coalition": str(f.coalition), "vector": self.vector(f.vector)}
        if t is Geq:
            return {"t": "geq",
                    "left": self.vector(f.left), "left_tag": str(f.left_tag),
                    "over": str(f.over),
                    "right": self.vector(f.right), "right_tag": str(f.right_tag)}
        if t is Not:
            return {"t": "not", "child": self.formula(f.child)}
        if t is And or t is Or:
            return {"t": "and" if t is And else "or",
                    "members": [self.formula(m) for m in f.members]}
        if t is Implies:
            return {"t": "implies", "lhs": self.formula(f.lhs), "rhs": self.formula(f.rhs)}
        if t is Bel:
            return {"t": "bel", "agent": f.agent, "child": self.formula(f.child)}
        raise InvalidInputError(f"unknown formula type: {t.__name__}")

    def ids(self, formulas: frozenset) -> list:
        # canonical order, so that ids never follow set iteration order;
        # keys expand a formula, so a lone one is not sorted
        if len(formulas) > 1:
            formulas = sorted(formulas, key=lambda f: f.key())
        return [self.formula(f) for f in formulas]

    def side(self, fs: FormulaSet) -> dict:
        out = {}
        if fs.base is not None:
            k = self._set_ids.get(fs.base)
            if k is None:
                k = self._set_ids[fs.base] = len(self.sets)
                self.sets.append(self.ids(fs.base))
            out["base"] = k
        out["delta"] = self.ids(fs.extra)
        return out


def proof_to_obj(tree: ProofTree) -> dict:
    tables = _Tables()
    order, stack = [], [tree]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    # reversed, `order` is the post-order: a node's children are the last
    # rows still waiting for their parent when the node is reached
    nodes, waiting = [], []
    for node in reversed(order):
        seq = node.sequent
        row = {"prefix": list(seq.prefix), "ante": tables.side(seq.ante),
               "succ": tables.side(seq.succ), "rule": node.rule.value}
        meta = node.meta
        if meta is not None:
            hints = {name: tables.formula(getattr(meta, name)) for name in _META_FORMULAS
                     if getattr(meta, name) is not None}
            if meta.agent is not None:
                hints["agent"] = meta.agent
            if hints:
                row["meta"] = hints
        k = len(node.children)
        if k:
            row["children"] = waiting[-k:]
            del waiting[-k:]
        waiting.append(len(nodes))
        nodes.append(row)
    return {"vectors": tables.vectors, "formulas": tables.formulas,
            "sets": tables.sets, "nodes": nodes}


def proof_from_obj(obj: Any) -> ProofTree:
    _fields(obj, "proof file", ("vectors", "formulas", "sets", "nodes"))
    vectors = [payload_from_obj(v) for v in _array(obj, "vectors")]
    formula_rows, set_rows, rows = (_array(obj, name) for name in ("formulas", "sets", "nodes"))
    # a set row that is not an array is refused below
    budget = WORK_PER_ENTRY * (len(formula_rows) + len(rows)
                               + sum(len(s) for s in set_rows if isinstance(s, list)))
    formulas, work = _formula_table(formula_rows, vectors, budget)
    sets = [frozenset(formulas[k] for k in _ids(row, formulas, "formula"))
            for row in set_rows]
    if not rows:
        raise InvalidInputError("proof has no nodes")
    trees, depth, used = [], [], []
    sides: dict = {}
    for row in rows:
        _fields(row, "proof node", ("prefix", "ante", "succ", "rule"), ("meta", "children"))
        try:
            rule = Rule(row["rule"])
        except ValueError:
            raise InvalidInputError(f"unknown rule tag: {row['rule']!r}") from None
        kids = _ids(row.get("children", []), trees, "node")
        for k in kids:
            if used[k]:
                raise InvalidInputError(f"node {k} is a child twice")
            used[k] = True
        d = 1 + max((depth[k] for k in kids), default=0)
        if d > MAX_PROOF_DEPTH:
            raise InvalidInputError(f"proof is deeper than {MAX_PROOF_DEPTH} nodes")
        seq = ThoughtSequent(tuple(map(_agent, _array(row, "prefix"))),
                             _side(row["ante"], formulas, sets, sides),
                             _side(row["succ"], formulas, sets, sides))
        meta = _meta(row["meta"], formulas) if "meta" in row else None
        premises = tuple(trees[k] for k in kids)
        work += _node_work(rule, seq, tuple(p.sequent for p in premises), meta)
        if work > budget:
            raise InvalidInputError("checking the proof would read more than "
                                    f"{WORK_PER_ENTRY} formulas per entry of the file")
        trees.append(ProofTree(seq, rule, premises, meta))
        depth.append(d)
        used.append(False)
    if not all(used[:-1]):
        raise InvalidInputError(f"node {used.index(False)} has no parent, "
                                "but only the last node is the root")
    return trees[-1]


def _formula_table(rows: list, vectors: list, budget: int) -> tuple[list, int]:
    """The formulas of the table rows, and the reads spent building them.

    Equal rows become one object, so no equality test walks two copies of
    a subformula.  Building a conjunction or disjunction sorts its members
    on their expanded keys, which reads every node of their expansion; a
    row is refused before it is built if that would pass `budget`.
    """
    built, depth, size = [], [], []
    interned: dict = {}
    work = 0
    for row in rows:
        t = row.get("t") if isinstance(row, dict) else None
        if not isinstance(t, str) or t not in _FORMULA_FIELDS:
            raise InvalidInputError(f"formula rows must carry a known tag, got {t!r}")
        _fields(row, f"{t!r} formula", ("t",) + _FORMULA_FIELDS[t])
        if t == "ach" or t == "geq":
            f, d, n = _atom(t, row, vectors), 1, 1
        else:
            kids = (_array(row, "members") if t == "and" or t == "or"
                    else (row["lhs"], row["rhs"]) if t == "implies" else (row["child"],))
            children = [_ref(built, k, "formula") for k in kids]
            d = 1 + max((depth[k] for k in kids), default=0)
            if d > MAX_FORMULA_DEPTH:
                raise InvalidInputError(f"formula {len(built)} is nested deeper "
                                        f"than {MAX_FORMULA_DEPTH}")
            n = 1 + sum(size[k] for k in kids)
            if t == "and" or t == "or":
                work += n - 1
                if work > budget:
                    raise InvalidInputError(f"formulas expand to more than {WORK_PER_ENTRY} "
                                            "nodes per entry of the file")
            f = _compound(t, row, children)
        built.append(interned.setdefault(f, f))
        depth.append(d)
        size.append(n)
    return built, work


def _atom(t: str, row: dict, vectors: list) -> Formula:
    if t == "ach":
        return Ach(_ref(vectors, row["vector"], "vector"), _coalition(row["coalition"]))
    left = _ref(vectors, row["left"], "vector")
    right = _ref(vectors, row["right"], "vector")
    if len(left) != len(right) or type(left[0]) is not type(right[0]):
        raise InvalidInputError("geq compares payloads of different shapes")
    # the kernel reads both payloads at every member of `over`
    over = _coalition(row["over"])
    if over.members[-1] > len(left):
        raise InvalidInputError(f"coalition {over} exceeds the payload length")
    return Geq(left, _coalition(row["left_tag"]), over, right, _coalition(row["right_tag"]))


def _compound(t: str, row: dict, children: list) -> Formula:
    if t == "not":
        return Not(children[0])
    if t == "and":
        return And(children)
    if t == "or":
        return Or(children)
    if t == "implies":
        return Implies(*children)
    return Bel(_agent(row["agent"]), children[0])


@lru_cache(maxsize=1024)
def _parse_coalition(text: str) -> Coalition:
    return Coalition.parse(text)


def _coalition(text: Any) -> Coalition:
    # a file names few distinct coalitions, each many times
    return _parse_coalition(text) if isinstance(text, str) else Coalition.parse(text)


# rules that look for their principal on a side when no hint names it
_HINTED = frozenset((Rule.NotLeft, Rule.NotRight, Rule.ImpLeft, Rule.ImpRight,
                     Rule.AndLeft, Rule.AndRight, Rule.OrLeft, Rule.OrRight))
# rules whose check reads whole sides
_WHOLE = frozenset((Rule.Cut, Rule.EpistemicDist))
# rules that pick one member of their principal
_PICKS = frozenset((Rule.AndLeft, Rule.OrRight))


def _node_work(rule: Rule, seq: ThoughtSequent, premises: tuple, meta) -> int:
    """A bound on the formulas the kernel reads at one node beyond the
    rows the file spells out for it.

    The kernel stays on the deltas while the based sides at each position
    share one base and the rule is hinted and takes no formula out of a
    base (logic._candidates_minus).  Otherwise it may read every base once
    per sequent, and once per candidate principal when unhinted.  AndLeft
    and OrRight also scan their principal's members, a row that many nodes
    may share.
    """
    if not premises:
        # axioms compare sides of at most one formula
        return 0
    p = meta.principal if meta is not None else None
    work = len(p.members) if rule in _PICKS and isinstance(p, (And, Or)) else 0
    seqs = (seq,) + premises
    bases: dict = {}
    mixed = False
    for name in ("ante", "succ"):
        here = {id(b): b for b in (getattr(s, name).base for s in seqs) if b is not None}
        mixed = mixed or len(here) > 1
        bases.update(here)
    if not bases:
        return work
    taken = (p if rule is Rule.AndRight or rule is Rule.OrLeft
             else getattr(p, "rhs", None) if rule is Rule.ImpRight else None)
    unhinted = ((rule in _HINTED and p is None)
                or (rule is Rule.Cut and (meta is None or meta.cut is None)))
    if mixed or unhinted or rule in _WHOLE or (
            taken is not None and any(taken in b for b in bases.values())):
        total = sum(map(len, bases.values()))
        work += len(seqs) * total * (total if unhinted else 1)
    return work


def _side(obj: Any, formulas: list, sets: list, interned: dict) -> FormulaSet:
    # equal sides of a file share one FormulaSet, as they do in memory
    _fields(obj, "sequent side", ("delta",), ("base",))
    delta = tuple(_ids(obj["delta"], formulas, "formula"))
    base = _ref(sets, obj["base"], "set") if "base" in obj else None
    key = (obj.get("base"), delta)
    fs = interned.get(key)
    if fs is None:
        fs = interned[key] = FormulaSet(base, frozenset(formulas[k] for k in delta))
    return fs


def _meta(obj: Any, formulas: list) -> RuleMeta:
    _fields(obj, "proof meta", (), _META_FORMULAS + ("agent",))
    hints = {name: _ref(formulas, obj[name], "formula")
             for name in _META_FORMULAS if name in obj}
    return RuleMeta(agent=_agent(obj["agent"]) if "agent" in obj else None, **hints)


def _ref(table: list, k: Any, what: str):
    # tables fill row by row, so a reference can only reach an earlier row
    if type(k) is not int or not 0 <= k < len(table):
        raise InvalidInputError(f"{what} id {k!r} is not an earlier row")
    return table[k]


def _ids(ids: Any, table: list, what: str) -> list:
    if not isinstance(ids, list):
        raise InvalidInputError(f"{what} ids must be an array")
    for k in ids:
        _ref(table, k, what)
    return ids


def _fields(obj: Any, what: str, required: tuple, optional: tuple = ()) -> None:
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{what} must be an object")
    for name in required:
        if name not in obj:
            raise InvalidInputError(f"{what} needs field {name!r}")
    for name in obj:
        if name not in required and name not in optional:
            raise InvalidInputError(f"unknown field in {what}: {name!r}")


def _agent(value: Any) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise InvalidInputError(f"agent ids are positive integers, got {value!r}")
    return value


def _array(obj: dict, name: str) -> list:
    value = obj.get(name, [])
    if not isinstance(value, list):
        raise InvalidInputError(f"{name!r} must be an array")
    return value


def dump_json(obj: Any, path: str) -> None:
    # one line: json.dumps runs the C encoder only without indentation
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True))
        fh.write("\n")


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise InvalidInputError(
                f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
        except RecursionError:
            raise InvalidInputError(f"{path}: JSON nested too deeply") from None
