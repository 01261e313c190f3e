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
from typing import Any, Optional

from .errors import InvalidInputError
from .games import Coalition, TUGame
from .replica import Allocation, EdgeworthEconomy, ReplicaEconomy, _as_bundle
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
    if type(text) is int:  # a JSON true or false is no number
        return Fraction(text)
    if not isinstance(text, str):
        raise InvalidInputError(f"expected a rational string, got {text!r}")
    if "e" in text or "E" in text:
        # exact rationals need no exponent, and 1e999999999 would expand to
        # an integer of a billion digits
        raise InvalidInputError(f"bad rational: {text!r}")
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
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
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
    return {"utility": "ces", "rho": "1/2",
            "grid_denominator": economy.base.grid_denominator,
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
    # the one utility there is, CES with exponent 1/2, may be named
    rho = rational_from_str(obj.get("rho", "1/2"))
    base = EdgeworthEconomy(den)
    if obj.get("utility", "ces") != "ces":
        raise InvalidInputError(f"unknown utility tag: {obj['utility']!r}")
    if rho != Fraction(1, 2):
        raise InvalidInputError("only the CES utility with exponent 1/2 is available")
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


def payload_from_obj(obj: Any, grid: Optional[dict] = None) -> tuple:
    """A payload from its JSON array.  `grid` memoizes the units of each
    entry text by payload length, across the vectors of one file."""
    if not isinstance(obj, list) or not obj:
        raise InvalidInputError("vector must be a nonempty array")
    if isinstance(obj[0], list):
        out = []
        for bundle in obj:
            if not isinstance(bundle, list):
                raise InvalidInputError("vector mixes array and scalar entries")
            out.append(_as_bundle(tuple(map(rational_from_str, bundle))))
        return tuple(out)
    n = len(obj)
    memo = {} if grid is None else grid.setdefault(n, {})
    units = []
    for s in obj:
        u = memo.get(s) if type(s) is str else None
        if u is None:
            q = rational_from_str(s) * n
            if q.denominator != 1 or q < 0:
                raise InvalidInputError(f"entry {s!r} is off the 1/{n} grid")
            u = int(q)
            if type(s) is str:
                memo[s] = u
        units.append(u)
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
# formulas are at most 7 deep.  Ordering a junction's members may read
# every node of their expansion, so loading may cost WORK_PER_ENTRY such
# reads per entry of the file (formula row, set member or node row), and
# nesting shared rows cannot make a short file slow to load.  What
# checking may read is the kernel's own limit, logic.MAX_READS.
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
# each row's exact field set, and the tag that starts its formula's key()
_ACH, _GEQ, _NOT, _AND, _OR, _IMPLIES, _BEL = range(7)
_FORMULA_SHAPES = {t: (frozenset(("t",) + names), tag)
                   for tag, (t, names) in enumerate(_FORMULA_FIELDS.items())}
_JUNCTIONS = {_AND: And, _OR: Or}
_META_FORMULAS = ("principal", "member", "cut")
_NODE_REQUIRED = ("prefix", "ante", "succ", "rule")
_NODE_OPTIONAL = ("meta", "children")
# the same field lists as sets, for one comparison per row
_META_SET = frozenset(_META_FORMULAS + ("agent",))
_NODE_SETS = frozenset(_NODE_REQUIRED), frozenset(_NODE_REQUIRED + _NODE_OPTIONAL)
_RULES = {rule.value: rule for rule in Rule}


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
        # coalitions of the tree being written, which outlive the writer
        self._names: dict = {}   # id(Coalition) -> its file key

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

    def _name(self, c: Coalition) -> str:
        name = self._names.get(id(c))
        if name is None:
            name = self._names[id(c)] = str(c)
        return name

    def _formula_row(self, f: Formula) -> dict:
        t = type(f)
        if t is Ach:
            return {"t": "ach", "coalition": self._name(f.coalition),
                    "vector": self.vector(f.vector)}
        if t is Geq:
            return {"t": "geq",
                    "left": self.vector(f.left), "left_tag": self._name(f.left_tag),
                    "over": self._name(f.over),
                    "right": self.vector(f.right), "right_tag": self._name(f.right_tag)}
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
    formula, side = tables.formula, tables.side
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
        row = {"prefix": list(seq.prefix), "ante": side(seq.ante),
               "succ": side(seq.succ), "rule": node.rule.value}
        meta = node.meta
        if meta is not None:
            hints = {}
            if meta.principal is not None:
                hints["principal"] = formula(meta.principal)
            if meta.member is not None:
                hints["member"] = formula(meta.member)
            if meta.cut is not None:
                hints["cut"] = formula(meta.cut)
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
    grid: dict = {}
    vectors = [payload_from_obj(v, grid) for v in _array(obj, "vectors")]
    # the kernel reads the comparison from the payload kind, so one file
    # holds one game's grid units or one economy's bundles
    for k, v in enumerate(vectors):
        if len(v) != len(vectors[0]) or type(v[0]) is not type(vectors[0][0]):
            raise InvalidInputError(f"vector {k} differs in length or kind from vector 0")
    formula_rows, set_rows, rows = (_array(obj, name) for name in ("formulas", "sets", "nodes"))
    # a set row that is not an array is refused below
    budget = WORK_PER_ENTRY * (len(formula_rows) + len(rows)
                               + sum(len(s) for s in set_rows if isinstance(s, list)))
    formulas = _formula_table(formula_rows, vectors, budget)
    sets = [frozenset(map(formulas.__getitem__, _ids(row, formulas, "formula")))
            for row in set_rows]
    if not rows:
        raise InvalidInputError("proof has no nodes")
    trees, depth, used = [], [], []
    sides: dict = {}
    required, allowed = _NODE_SETS
    for row in rows:
        if not (isinstance(row, dict) and required <= row.keys() <= allowed):
            _fields(row, "proof node", _NODE_REQUIRED, _NODE_OPTIONAL)
        rule = row["rule"]
        rule = _RULES.get(rule) if isinstance(rule, str) else None
        if rule is None:
            raise InvalidInputError(f"unknown rule tag: {row['rule']!r}")
        kids = _ids(row["children"], trees, "node") if "children" in row else ()
        d = 0
        for k in kids:
            if used[k]:
                raise InvalidInputError(f"node {k} is a child twice")
            used[k] = True
            if depth[k] > d:
                d = depth[k]
        d += 1
        if d > MAX_PROOF_DEPTH:
            raise InvalidInputError(f"proof is deeper than {MAX_PROOF_DEPTH} nodes")
        prefix = _array(row, "prefix")
        for a in prefix:
            if type(a) is not int or a < 1:
                _agent(a)
        seq = ThoughtSequent(prefix, _side(row["ante"], formulas, sets, sides),
                             _side(row["succ"], formulas, sets, sides))
        meta = _meta(row["meta"], formulas) if "meta" in row else None
        trees.append(ProofTree(seq, rule, tuple(map(trees.__getitem__, kids)), meta))
        depth.append(d)
        used.append(False)
    if not all(used[:-1]):
        raise InvalidInputError(f"node {used.index(False)} has no parent, "
                                "but only the last node is the root")
    return trees[-1]


def _formula_table(rows: list, vectors: list, budget: int) -> list:
    """The formulas of the table rows.

    Equal rows become one object, so no equality test walks two copies of
    a subformula: a row is looked up by its tag and the first rows of its
    children (an atom by its payloads and coalitions) before it is built.
    A conjunction or disjunction puts its members in canonical order by
    their `key()`, which the table builds once per row from its children's;
    comparing keys may read every node of the members' expansion, so that
    expansion is charged to `budget`, and a row is refused before it is
    built if it would pass it.
    """
    built, keys, first, depth, size = [], [], [], [], []
    known: dict = {}  # tag and first child rows -> the first row of that formula
    names: dict = {}  # coalition key -> (Coalition, canonical key)
    work = 0
    for row in rows:
        try:
            shape, tag = _FORMULA_SHAPES[row["t"]]
        except (KeyError, TypeError):
            t = row.get("t") if isinstance(row, dict) else None
            raise InvalidInputError(f"formula rows must carry a known tag, got {t!r}") from None
        if row.keys() != shape:
            _fields(row, f"{row['t']!r} formula", ("t",) + _FORMULA_FIELDS[row["t"]])
        here = len(built)
        if tag <= _GEQ:
            f, key = _atom(tag, row, vectors, names)
            d = n = 1
            j = known.setdefault(key, here)
        elif tag == _NOT:
            k = row["child"]
            if type(k) is not int or not 0 <= k < here:
                _ref(built, k, "formula")
            d, n = depth[k] + 1, size[k] + 1
            if d > MAX_FORMULA_DEPTH:
                raise _too_deep(here)
            c = first[k]
            j = known.setdefault((_NOT, c), here)
            if j == here:
                f, key = Not(built[c]), (_NOT, keys[c])
        else:
            junction = tag == _AND or tag == _OR
            kids = (_array(row, "members") if junction
                    else (row["lhs"], row["rhs"]) if tag == _IMPLIES else (row["child"],))
            ids, d, n = [], 0, 0
            for k in kids:
                if type(k) is not int or not 0 <= k < here:
                    _ref(built, k, "formula")
                ids.append(first[k])
                if depth[k] > d:
                    d = depth[k]
                n += size[k]
            d, n = d + 1, n + 1
            if d > MAX_FORMULA_DEPTH:
                raise _too_deep(here)
            if junction:
                work += n - 1
                if work > budget:
                    raise InvalidInputError(f"formulas expand to more than {WORK_PER_ENTRY} "
                                            "nodes per entry of the file")
                if not ids:
                    _JUNCTIONS[tag](ids)  # refuses: a junction needs a member
                unique = set(ids)
                if len(unique) < len(ids):
                    ids = list(unique)
                ids.sort(key=keys.__getitem__)
                shallow = (tag, *ids)
            elif tag == _BEL:
                shallow = (tag, _agent(row["agent"]), ids[0])
            else:
                shallow = (tag, *ids)
            j = known.setdefault(shallow, here)
            if j == here:
                f, key = _compound(shallow, built, keys)
        if j != here:
            f, key = built[j], keys[j]
        built.append(f)
        keys.append(key)
        first.append(j)
        depth.append(d)
        size.append(n)
    return built


def _too_deep(row: int) -> InvalidInputError:
    return InvalidInputError(f"formula {row} is nested deeper than {MAX_FORMULA_DEPTH}")


def _atom(tag: int, row: dict, vectors: list, names: dict) -> tuple[Formula, tuple]:
    """An atom and its key()."""
    if tag == _ACH:
        vec = _ref(vectors, row["vector"], "vector")
        c, ck = _coalition(row["coalition"], names)
        return Ach(vec, c), (_ACH, ck, vec)
    left = _ref(vectors, row["left"], "vector")
    right = _ref(vectors, row["right"], "vector")
    over, ok = _coalition(row["over"], names)
    lt, ltk = _coalition(row["left_tag"], names)
    rt, rtk = _coalition(row["right_tag"], names)
    return Geq(left, lt, over, right, rt), (_GEQ, ltk, left, ok, rtk, right)


def _compound(shallow: tuple, built: list, keys: list) -> tuple[Formula, tuple]:
    """The implication, belief or junction of a row's tag and first child
    rows, and its key()."""
    tag = shallow[0]
    if tag == _IMPLIES:
        _, lhs, rhs = shallow
        return Implies(built[lhs], built[rhs]), (_IMPLIES, keys[lhs], keys[rhs])
    if tag == _BEL:
        _, agent, child = shallow
        return Bel(agent, built[child]), (_BEL, agent, keys[child])
    ids = shallow[1:]
    return (_JUNCTIONS[tag]._presorted(tuple(map(built.__getitem__, ids))),
            (tag, tuple(map(keys.__getitem__, ids))))


def _coalition(text: Any, names: dict) -> tuple[Coalition, tuple]:
    """A coalition key and its canonical sort key, parsed once per file."""
    found = names.get(text) if isinstance(text, str) else None
    if found is None:
        c = Coalition.parse(text)  # refuses a key that is not a string
        found = names[text] = (c, c.canonical_key)
    return found


def _side(obj: Any, formulas: list, sets: list, interned: dict) -> FormulaSet:
    # equal sides of a file share one FormulaSet, as they do in memory
    if not (isinstance(obj, dict) and "delta" in obj and len(obj) == 1 + ("base" in obj)):
        _fields(obj, "sequent side", ("delta",), ("base",))
    delta = _ids(obj["delta"], formulas, "formula")
    base = _ref(sets, obj["base"], "set") if "base" in obj else None
    key = (obj.get("base"), *delta)
    fs = interned.get(key)
    if fs is None:
        fs = interned[key] = FormulaSet(base, frozenset(map(formulas.__getitem__, delta)))
    return fs


def _meta(obj: Any, formulas: list) -> RuleMeta:
    if not (isinstance(obj, dict) and obj.keys() <= _META_SET):
        _fields(obj, "proof meta", (), _META_FORMULAS + ("agent",))
    return RuleMeta(
        _ref(formulas, obj["principal"], "formula") if "principal" in obj else None,
        _ref(formulas, obj["member"], "formula") if "member" in obj else None,
        _ref(formulas, obj["cut"], "formula") if "cut" in obj else None,
        _agent(obj["agent"]) if "agent" in obj else None)


def _ref(table: list, k: Any, what: str):
    # tables fill row by row, so a reference can only reach an earlier row
    if type(k) is not int or not 0 <= k < len(table):
        raise InvalidInputError(f"{what} id {k!r} is not an earlier row")
    return table[k]


def _ids(ids: Any, table: list, what: str) -> list:
    if not isinstance(ids, list):
        raise InvalidInputError(f"{what} ids must be an array")
    n = len(table)
    for k in ids:
        if type(k) is not int or not 0 <= k < n:
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
