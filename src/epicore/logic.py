"""Thought sequents and their proof calculus.

A thought sequent B_e[ante -> succ] pairs a belief prefix e (a finite,
possibly empty sequence of agent ids) with two finite SETS of formulas.
Proof trees are checked bottom-up against eleven structural/logical rules
plus two axiom forms:

  * logical axioms  B_e[A -> A]
  * non-logical axioms: comparison facts  B_e[-> y >= x over S]  and their
    negations, decided from the payloads themselves.

Formulas are immutable, hash-cached, and compared structurally.  Payoff
vectors inside atoms are carried as tuples of integer grid units (the
owning layer fixes the unit 1/n and converts to exact rationals at the
boundary), which compare in plain order; economy atoms carry tuples of
commodity bundles instead, pairs of rationals compared by exact CES
utility.  A comparison between entries of different kinds is neither true
nor false, so neither it nor its negation is an axiom.

Sequent sides use FormulaSet, a layered immutable set: a big shared base
(typically a knowledge set reused across thousands of sequents) plus a
small delta.  All rule checks run on the deltas when bases are shared, so
checking a proof with a large ambient knowledge set costs O(tree), not
O(tree * |knowledge set|).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import repeat
from operator import is_
from typing import Iterable, Iterator, Optional, Sequence

from .errors import InvalidInputError
from .games import Coalition

# ---------------------------------------------------------------------------
# formulas


class Formula:
    __slots__ = ("_hash",)

    def key(self):
        raise NotImplementedError


class Ach(Formula):
    """Atom: payoff vector (tagged with its superscript coalition) is achievable."""

    __slots__ = ("vector", "coalition")

    def __init__(self, vector, coalition: Coalition):
        self.vector = tuple(vector)
        self.coalition = coalition
        self._hash = None

    def key(self):
        return (0, self.coalition.canonical_key, self.vector)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((0, self.vector, self.coalition.members))
        return h

    def __eq__(self, other):
        if self is other:
            return True
        return (type(other) is Ach and self.vector == other.vector
                and self.coalition == other.coalition)

    def __repr__(self):
        return f"Ach({self.vector}, {self.coalition})"


class Geq(Formula):
    """Atom: left vector weakly exceeds right vector on every member of `over`.

    Left/right carry their own superscript tags (the coalition each vector
    is achievable for); `over` is the comparison coalition.
    """

    __slots__ = ("left", "left_tag", "over", "right", "right_tag")

    def __init__(self, left, left_tag: Coalition, over: Coalition, right, right_tag: Coalition):
        if len(over) < 1:
            raise InvalidInputError("comparison coalition must be nonempty")
        self.left = tuple(left)
        self.left_tag = left_tag
        self.over = over
        self.right = tuple(right)
        self.right_tag = right_tag
        self._hash = None

    def key(self):
        return (1, self.left_tag.canonical_key, self.left, self.over.canonical_key,
                self.right_tag.canonical_key, self.right)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(
                (1, self.left, self.left_tag.members, self.over.members,
                 self.right, self.right_tag.members))
        return h

    def __eq__(self, other):
        if self is other:
            return True
        return (type(other) is Geq and self.left == other.left
                and self.right == other.right and self.over == other.over
                and self.left_tag == other.left_tag and self.right_tag == other.right_tag)

    def __repr__(self):
        return f"Geq({self.left}^{self.left_tag} >=_{self.over} {self.right}^{self.right_tag})"


class Not(Formula):
    __slots__ = ("child",)

    def __init__(self, child: Formula):
        self.child = child
        self._hash = None

    def key(self):
        return (2, self.child.key())

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((2, self.child))
        return h

    def __eq__(self, other):
        if self is other:
            return True
        return type(other) is Not and self.child == other.child

    def __repr__(self):
        return f"Not({self.child!r})"


def _canonical_members(members: Iterable[Formula]) -> tuple[Formula, ...]:
    ms = list(members)
    if not ms:
        raise InvalidInputError("conjunction/disjunction needs at least one member")
    ms.sort(key=lambda f: f.key())
    out = [ms[0]]
    for f in ms[1:]:
        if f != out[-1]:
            out.append(f)
    return tuple(out)


class _Junction(Formula):
    """Finite conjunction or disjunction over a set of formulas (members
    stored sorted, deduped); the subclass's `tag` tells which."""

    __slots__ = ("members",)
    tag: int

    def __init__(self, members: Iterable[Formula]):
        self.members = _canonical_members(members)
        self._hash = None

    @classmethod
    def _presorted(cls, members: tuple[Formula, ...]):
        # trusted constructor: members already canonical
        self = cls.__new__(cls)
        self.members = members
        self._hash = None
        return self

    def key(self):
        return (self.tag, tuple(m.key() for m in self.members))

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.tag, self.members))
        return h

    def __eq__(self, other):
        if self is other:
            return True
        return type(other) is type(self) and self.members == other.members

    def __repr__(self):
        return f"{type(self).__name__}({list(self.members)!r})"


class And(_Junction):
    __slots__ = ()
    tag = 3


class Or(_Junction):
    __slots__ = ()
    tag = 4


class Implies(Formula):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Formula, rhs: Formula):
        self.lhs = lhs
        self.rhs = rhs
        self._hash = None

    def key(self):
        return (5, self.lhs.key(), self.rhs.key())

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((5, self.lhs, self.rhs))
        return h

    def __eq__(self, other):
        if self is other:
            return True
        return type(other) is Implies and self.lhs == other.lhs and self.rhs == other.rhs

    def __repr__(self):
        return f"Implies({self.lhs!r}, {self.rhs!r})"


class Bel(Formula):
    """Belief operator applied to a formula, for a single agent."""

    __slots__ = ("agent", "child")

    def __init__(self, agent: int, child: Formula):
        if agent < 1:
            raise InvalidInputError("agent ids are 1-based")
        self.agent = agent
        self.child = child
        self._hash = None

    def key(self):
        return (6, self.agent, self.child.key())

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((6, self.agent, self.child))
        return h

    def __eq__(self, other):
        if self is other:
            return True
        return type(other) is Bel and self.agent == other.agent and self.child == other.child

    def __repr__(self):
        return f"Bel({self.agent}, {self.child!r})"


@lru_cache(maxsize=64)
def _singleton(player: int) -> Coalition:
    # emitters build one strict gain per disjunct; share each player's tag
    return Coalition((player,))


def strict_gain(left, left_tag: Coalition, player: int, right, right_tag: Coalition) -> And:
    """The strict comparison abbreviation for a single player.

    left > right for `player` unfolds to: left >= right at player, and not
    (right >= left at player).  Member order below is already canonical
    (Geq sorts before Not).
    """
    over = _singleton(player)
    return And._presorted((
        Geq(left, left_tag, over, right, right_tag),
        Not(Geq(right, right_tag, over, left, left_tag)),
    ))


# ---------------------------------------------------------------------------
# layered formula sets (sequent sides)


class FormulaSet:
    """Immutable set of formulas: an optional shared base plus a small delta.

    Equality and the rule-check operations run on the deltas whenever two
    sets share the same base object, which is what makes checking proofs
    with large ambient knowledge sets affordable.  Content equality is
    independent of the layering split.
    """

    __slots__ = ("base", "extra", "_mat")

    def __init__(self, base: Optional[frozenset], extra: frozenset):
        if base is not None and extra and not extra.isdisjoint(base):
            extra = extra - base
        self.base = base
        self.extra = extra
        self._mat = None

    @staticmethod
    def of(formulas: Iterable[Formula] = ()) -> "FormulaSet":
        return FormulaSet(None, frozenset(formulas))

    @staticmethod
    def layered(base: frozenset, extra: Iterable[Formula] = ()) -> "FormulaSet":
        return FormulaSet(base, frozenset(extra))

    def materialize(self) -> frozenset:
        m = self._mat
        if m is None:
            m = self.extra if self.base is None else (self.base | self.extra)
            self._mat = m
        return m

    def __len__(self):
        return len(self.extra) + (0 if self.base is None else len(self.base))

    def __contains__(self, f):
        if f in self.extra:
            return True
        return self.base is not None and f in self.base

    def __iter__(self) -> Iterator[Formula]:
        if self.base is not None:
            yield from self.base
        yield from self.extra

    def __bool__(self):
        return bool(self.extra) or (self.base is not None and bool(self.base))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FormulaSet):
            return NotImplemented
        if self.base is other.base:
            return self.extra == other.extra
        if len(self) != len(other):
            return False
        return self.materialize() == other.materialize()

    __hash__ = None  # content hash would force materialization; use ids or materialize()

    def with_(self, f: Formula) -> "FormulaSet":
        base, extra = self.base, self.extra
        if f in extra or (base is not None and f in base):
            return self
        return _fs_make(base, extra | {f})

    def without(self, f: Formula) -> "FormulaSet":
        if f in self.extra:
            return _fs_make(self.base, self.extra - {f})
        if self.base is not None and f in self.base:
            return _fs_make(None, self.materialize() - {f})
        return self

    def union(self, formulas: Iterable[Formula]) -> "FormulaSet":
        fs = frozenset(formulas) - self.extra
        if self.base is not None:
            fs = fs - self.base
        if not fs:
            return self
        return _fs_make(self.base, self.extra | fs)

    def issubset(self, other: "FormulaSet") -> bool:
        if self is other:
            return True
        if self.base is other.base:
            return self.extra <= other.extra or all(f in other for f in self.extra)
        if self.base is None:
            return all(f in other for f in self.extra)
        if len(self) > len(other):
            return False
        return self.materialize() <= other.materialize()

    def __repr__(self):
        return f"FormulaSet({sorted(map(repr, self))})"


def _fs_make(base, extra) -> FormulaSet:
    # internal constructor for deltas already known disjoint from base
    fs = FormulaSet.__new__(FormulaSet)
    fs.base = base
    fs.extra = extra
    fs._mat = None
    return fs


def _extends(target: FormulaSet, ctx: FormulaSet, f: Formula) -> bool:
    """target == ctx with f added, without allocating on the shared-base path."""
    if target.base is ctx.base:
        te, ce = target.extra, ctx.extra
        if len(te) == len(ce) + 1:
            # f is the one new formula (deltas never meet their base)
            return ce <= te and f in te and f not in ce
        return te == ce and (f in ce or (ctx.base is not None and f in ctx.base))
    return target == ctx.with_(f)


EMPTY_SET = FormulaSet(None, frozenset())


# ---------------------------------------------------------------------------
# sequents


class ThoughtSequent:
    """B_e[ante -> succ]: belief prefix e plus two finite formula sets."""

    __slots__ = ("prefix", "ante", "succ")

    def __init__(self, prefix: Sequence[int], ante, succ):
        self.prefix = tuple(prefix)
        self.ante = ante if type(ante) is FormulaSet else FormulaSet.of(ante)
        self.succ = succ if type(succ) is FormulaSet else FormulaSet.of(succ)

    def __repr__(self):
        return f"B{list(self.prefix)}[{self.ante!r} -> {self.succ!r}]"


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector, restoring the caller's state on
    the way out.  Formulas, formula sets, sequents and proof trees hold no
    reference cycles, so reference counting frees them, and a collection
    pass would only walk the live ones again."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# rules and proof trees


class Rule(str, Enum):
    LogicalAxiom = "LogicalAxiom"
    NonLogicalAxiom = "NonLogicalAxiom"
    Th = "Th"
    Cut = "Cut"
    NotLeft = "NotLeft"
    NotRight = "NotRight"
    ImpLeft = "ImpLeft"
    ImpRight = "ImpRight"
    AndLeft = "AndLeft"
    AndRight = "AndRight"
    OrLeft = "OrLeft"
    OrRight = "OrRight"
    EpistemicDist = "EpistemicDist"


class RuleMeta:
    """Optional hints naming a rule instance's moving parts.

    principal: the formula introduced/decomposed by the rule; for NotLeft
               and NotRight, the A of `not A`
    member:    the chosen member of a conjunction/disjunction (AndLeft, OrRight)
    cut:       the cut formula (Cut)
    agent:     the agent distributed over (EpistemicDist)
    """

    __slots__ = ("principal", "member", "cut", "agent")

    def __init__(self, principal: Optional[Formula] = None,
                 member: Optional[Formula] = None,
                 cut: Optional[Formula] = None,
                 agent: Optional[int] = None):
        self.principal = principal
        self.member = member
        self.cut = cut
        self.agent = agent

    def __repr__(self):
        parts = [f"{k}={getattr(self, k)!r}" for k in self.__slots__
                 if getattr(self, k) is not None]
        return f"RuleMeta({', '.join(parts)})"


class ProofTree:
    __slots__ = ("sequent", "rule", "children", "meta")

    def __init__(self, sequent: ThoughtSequent, rule: Rule,
                 children: tuple = (), meta: Optional[RuleMeta] = None):
        self.sequent = sequent
        self.rule = rule
        self.children = children
        self.meta = meta

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)

    def __repr__(self):
        return f"ProofTree({self.rule.value}, {self.sequent!r}, {len(self.children)} children)"


def witness_derivation(prefix: Sequence[int], gamma: FormulaSet, witness: And) -> ProofTree:
    """gamma |- witness for a rejection witness Ach /\\ Geq /\\ strict gain.

    AndRight over Th-weakened leaves: the logical axiom Ach |- Ach, the
    non-logical axiom |- Geq, and |- strict gain as AndRight over its two
    non-logical axioms.  The leaves need only Ach in gamma.
    """
    ach, geq, strict = witness.members

    def axiom(f):
        return ProofTree(ThoughtSequent(prefix, EMPTY_SET, FormulaSet.of((f,))),
                         Rule.NonLogicalAxiom)

    leaves = (
        ProofTree(ThoughtSequent(prefix, FormulaSet.of((ach,)), FormulaSet.of((ach,))),
                  Rule.LogicalAxiom),
        axiom(geq),
        ProofTree(ThoughtSequent(prefix, EMPTY_SET, FormulaSet.of((strict,))),
                  Rule.AndRight, tuple(axiom(f) for f in strict.members),
                  RuleMeta(principal=strict)),
    )
    th = tuple(ProofTree(ThoughtSequent(prefix, gamma, FormulaSet.of((f,))), Rule.Th, (leaf,))
               for f, leaf in zip(witness.members, leaves))
    return ProofTree(ThoughtSequent(prefix, gamma, FormulaSet.of((witness,))),
                     Rule.AndRight, th, RuleMeta(principal=witness))


# ---------------------------------------------------------------------------
# axioms


def _radical_cmp(s1, p1, s2, p2) -> int:
    """Sign of (s1 + 2*sqrt(p1)) - (s2 + 2*sqrt(p2)), all arguments rational.

    Both radicands must be non-negative.  Works on int and Fraction alike;
    only ring operations and comparisons are used.
    """
    s = s1 - s2
    # L = s + 2*sqrt(p1) versus R = 2*sqrt(p2) >= 0.  If L < 0 the answer
    # is immediate; otherwise both sides are non-negative and squaring is
    # order-preserving.
    if s < 0 and 4 * p1 < s * s:
        return -1
    # L^2 - R^2 = s^2 + 4 p1 - 4 p2 + 4 s sqrt(p1): compare c*sqrt(p1) vs w.
    c = 4 * s
    w = 4 * p2 - s * s - 4 * p1
    lhs_sign = 0 if p1 == 0 or c == 0 else (1 if c > 0 else -1)
    w_sign = (w > 0) - (w < 0)
    if lhs_sign != w_sign:
        return 1 if lhs_sign > w_sign else -1
    if lhs_sign == 0:
        return 0
    a, b = c * c * p1, w * w
    if a == b:
        return 0
    out = 1 if a > b else -1
    return out if lhs_sign > 0 else -out


def _cmp_units(a: tuple, b: tuple) -> int:
    """CES utility order (exponent 1/2) of two bundles: -1, 0 or 1.

    u(x1, x2) = x1 + x2 + 2*sqrt(x1*x2).  Bundles of rationals or unit
    counts alike: scaling both by one factor keeps their order, since the
    utility is homogeneous.
    """
    return _radical_cmp(a[0] + a[1], a[0] * a[1], b[0] + b[1], b[0] * b[1])


def _geq_holds(f: Geq) -> Optional[bool]:
    """Whether left >= right at every member of `over`: integer grid units
    in plain order, bundles by utility.  None when some compared pair of
    entries differs in kind."""
    left, right = f.left, f.right
    holds = True
    for p in f.over.members:
        a, b = left[p - 1], right[p - 1]
        t = type(a)
        if t is not type(b):
            return None
        if t is int:
            if a < b:
                holds = False
        elif t is tuple and len(a) == 2 == len(b):
            if _cmp_units(a, b) < 0:
                holds = False
        else:
            return None
    return holds


def is_logical_axiom(seq: ThoughtSequent) -> bool:
    """B_e[A -> A]: singleton, identical sides."""
    return len(seq.ante) == 1 and seq.ante == seq.succ


def is_nonlogical_axiom(seq: ThoughtSequent) -> bool:
    """Comparison facts with empty antecedent and a singleton succedent.

    B_e[-> left >= right over S]      iff every member's comparison holds;
    B_e[-> not(left >= right over S)] iff some member's comparison fails.
    Any prefix is allowed.
    """
    if seq.ante or len(seq.succ) != 1:
        return False
    (f,) = tuple(seq.succ)
    if type(f) is Geq:
        return _geq_holds(f) is True
    if type(f) is Not and type(f.child) is Geq:
        return _geq_holds(f.child) is False
    return False


# ---------------------------------------------------------------------------
# rule instance checking
#
# Rules are printed with sequence-style contexts but sequents hold sets, so a
# context written "Gamma -> Theta, A" matches a concrete succedent S whenever
# either Theta = S - {A} or Theta = S (A absorbed into Theta).  Each checker
# below enumerates exactly those readings.


def _candidates_minus(s: FormulaSet, f: Formula) -> tuple:
    # the two legal readings of a context from which f was singled out
    return (s.without(f), s)


def _has_member(members: tuple, f: Formula) -> bool:
    # an identity scan first: it runs in C, while `in` calls a Python-level
    # __eq__ per member, which costs on disjunctions with many members
    return any(map(is_, members, repeat(f))) or f in members


def _extends_minus(target: FormulaSet, side: FormulaSet, principal: Formula,
                   m: Formula) -> bool:
    """principal is in `side`, and target == ctx with m added for one of
    the two readings ctx of `side` with the principal singled out (see
    _candidates_minus).

    When both sets share a base, the deltas are compared directly and no
    candidate context is built.  This relies on the FormulaSet invariant
    that a delta never meets its base.
    """
    base = side.base
    if base is None or target.base is not base:
        return principal in side and any(
            _extends(target, ctx, m) for ctx in _candidates_minus(side, principal))
    ec, ep = side.extra, target.extra
    gone = ec - ep
    if gone:
        # only the principal may leave the context, and only from the delta
        if len(gone) > 1 or principal not in gone:
            return False
    elif principal not in ec and principal not in base:
        return False
    new = ep - ec
    if new:
        return len(new) == 1 and m in new
    return m in ec or m in base


def _principals(meta, side: FormulaSet, kind: type):
    # the hinted principal if it has the rule's connective, else every
    # formula with that connective on the side
    if meta is not None and meta.principal is not None:
        return (meta.principal,) if type(meta.principal) is kind else ()
    return [f for f in side if type(f) is kind]


def _check_th(concl, prems, meta):
    (p,) = prems
    if not p.ante.issubset(concl.ante):
        return "antecedent not weakened"
    if not p.succ.issubset(concl.succ):
        return "succedent not weakened"
    return None


def _check_cut(concl, prems, meta):
    # from B[Gamma -> Theta, A] and B[A, Delta -> Lambda]
    # infer B[Delta, Gamma -> Theta, Lambda]
    p1, p2 = prems
    if meta is not None and meta.cut is not None:
        cuts = [meta.cut]
    else:
        cuts = [f for f in p1.succ if f in p2.ante]
    for a in cuts:
        if a not in p1.succ or a not in p2.ante:
            continue
        if not any(concl.ante == p1.ante.union(delta)
                   for delta in _candidates_minus(p2.ante, a)):
            continue
        if any(concl.succ == theta.union(p2.succ)
               for theta in _candidates_minus(p1.succ, a)):
            return None
    return "no cut reading matches"


def _check_not(concl, prems, meta, left):
    # NotLeft: from B[Gamma -> Theta, A] infer B[not A, Gamma -> Theta];
    # NotRight mirrors it.  `not A` joins the antecedent when `left`, else
    # the succedent; A leaves the other side.  The hint names A itself
    (p,) = prems
    c_gain, c_leave = (concl.ante, concl.succ) if left else (concl.succ, concl.ante)
    p_gain, p_leave = (p.ante, p.succ) if left else (p.succ, p.ante)
    if meta is not None and meta.principal is not None:
        cands = (meta.principal,)
    else:
        cands = [f.child for f in c_gain if type(f) is Not]
    for a in cands:
        if _extends(c_gain, p_gain, Not(a)) and _extends(p_leave, c_leave, a):
            return None
    return "no negation reading matches"


def _check_imp_left(concl, prems, meta):
    # from B[Gamma -> Theta, A] and B[B', Gamma -> Theta]
    # infer B[A implies B', Gamma -> Theta]
    p1, p2 = prems
    if p2.succ != concl.succ:
        return "succedent changed"
    for imp in _principals(meta, concl.ante, Implies):
        if _extends(concl.ante, p1.ante, imp) \
                and _extends(p1.succ, concl.succ, imp.lhs) \
                and _extends(p2.ante, p1.ante, imp.rhs):
            return None
    return "no implication-left reading matches"


def _check_imp_right(concl, prems, meta):
    # from B[A, Gamma -> Theta, B'] infer B[Gamma -> Theta, A implies B']
    (p,) = prems
    for imp in _principals(meta, concl.succ, Implies):
        if imp.rhs in p.succ and _extends(p.ante, concl.ante, imp.lhs) \
                and any(_extends(concl.succ, theta, imp)
                        for theta in _candidates_minus(p.succ, imp.rhs)):
            return None
    return "no implication-right reading matches"


def _check_pick(concl, prems, meta, kind, left):
    # AndLeft: from B[A_k, Gamma -> Theta] infer B[/\A, Gamma -> Theta];
    # OrRight mirrors it on the succedent (`left` false).  The hint may
    # name the member A_k
    (p,) = prems
    c_side, c_other = (concl.ante, concl.succ) if left else (concl.succ, concl.ante)
    p_side, p_other = (p.ante, p.succ) if left else (p.succ, p.ante)
    if p_other is not c_other and p_other != c_other:
        return "the other side changed"
    for a in _principals(meta, c_side, kind):
        members = a.members
        if meta is not None and meta.member is not None:
            members = (meta.member,) if _has_member(members, meta.member) else ()
        for m in members:
            if _extends_minus(p_side, c_side, a, m):
                return None
    return "no member reading matches"


def _check_split(concl, prems, meta, kind, left):
    # AndRight: from B[Gamma -> Theta, A_k] for every member A_k infer
    # B[Gamma -> Theta, /\A]; OrLeft mirrors it on the antecedent (`left`
    # true).  The premises pair with the members in order or, failing
    # that, in any order
    c_side, c_other = (concl.ante, concl.succ) if left else (concl.succ, concl.ante)
    for p in prems:
        p_other = p.succ if left else p.ante
        if p_other is not c_other and p_other != c_other:
            return "the other side changed"
    var_sides = [p.ante for p in prems] if left else [p.succ for p in prems]
    for a in _principals(meta, c_side, kind):
        members = a.members
        if len(var_sides) != len(members) or a not in c_side:
            continue
        for ctx in _candidates_minus(c_side, a):
            if all(map(_extends, var_sides, repeat(ctx), members)):
                return None
            used = [False] * len(var_sides)
            for m in members:
                for j, v in enumerate(var_sides):
                    if not used[j] and _extends(v, ctx, m):
                        used[j] = True
                        break
                else:
                    break
            else:
                return None
    return "premises do not cover the members"


def _check_epistemic(concl, prems, meta):
    (p,) = prems
    if len(concl.succ) > 1:
        return "epistemic distribution needs at most one succedent formula"
    agents = set()
    for f in concl.ante:
        if type(f) is not Bel:
            return "antecedent must be fully inside one agent's belief"
        agents.add(f.agent)
    for f in concl.succ:
        if type(f) is not Bel:
            return "succedent must be fully inside one agent's belief"
        agents.add(f.agent)
    if meta is not None and meta.agent is not None:
        agents.add(meta.agent)
    if len(agents) != 1:
        return "no single distributing agent" if agents or meta is None else "agent hint missing"
    (i,) = tuple(agents)
    if p.prefix != concl.prefix + (i,):
        return "premise prefix must extend the conclusion prefix by the agent"
    if p.ante != FormulaSet.of(f.child for f in concl.ante):
        return "premise antecedent must strip the belief operator"
    if p.succ != FormulaSet.of(f.child for f in concl.succ):
        return "premise succedent must strip the belief operator"
    return None


# rule -> (checker, arity, the checker's further arguments: the connective
# and whether the principal sits in the antecedent); arity None means "one
# per member", at least one
_RULES = {
    Rule.Th: (_check_th, 1, ()),
    Rule.Cut: (_check_cut, 2, ()),
    Rule.NotLeft: (_check_not, 1, (True,)),
    Rule.NotRight: (_check_not, 1, (False,)),
    Rule.ImpLeft: (_check_imp_left, 2, ()),
    Rule.ImpRight: (_check_imp_right, 1, ()),
    Rule.AndLeft: (_check_pick, 1, (And, True)),
    Rule.AndRight: (_check_split, None, (And, False)),
    Rule.OrLeft: (_check_split, None, (Or, True)),
    Rule.OrRight: (_check_pick, 1, (Or, False)),
    Rule.EpistemicDist: (_check_epistemic, 1, ()),
}


def rule_instance_valid(conclusion: ThoughtSequent, premises: Sequence[ThoughtSequent],
                        rule: Rule, meta: Optional[RuleMeta] = None) -> bool:
    """Check one inference step against its rule schema (axioms excluded)."""
    return _rule_failure(conclusion, tuple(premises), rule, meta) is None


def _rule_failure(conclusion, premises, rule, meta) -> Optional[str]:
    entry = _RULES.get(rule)
    if entry is None:
        return f"{rule.value} is not an inference rule"
    checker, want, args = entry
    if want is not None:
        if len(premises) != want:
            return f"{rule.value} takes {want} premise(s), got {len(premises)}"
    elif not premises:
        return f"{rule.value} needs at least one premise"
    # every rule but EpistemicDist keeps the prefix; that one extends it
    if checker is not _check_epistemic:
        prefix = conclusion.prefix
        for p in premises:
            if p.prefix != prefix:
                return "prefix mismatch"
    return checker(conclusion, premises, meta, *args)


# ---------------------------------------------------------------------------
# proof checking


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    path: tuple[int, ...] = ()
    reason: str = ""

    def __bool__(self):
        return self.ok


class ChainCache:
    """Layered check_proof cache.

    Lookups consult the persistent layers in order, inserts land in the
    local layer.
    """

    __slots__ = ("layers", "local", "_gets")

    def __init__(self, *layers: dict, local: Optional[dict] = None):
        self.layers = layers
        self.local = local if local is not None else {}
        self._gets = tuple(d.get for d in layers) + (self.local.get,)

    def get(self, key):
        for get in self._gets:
            hit = get(key)
            if hit is not None:
                return hit
        return None

    def __setitem__(self, key, value):
        self.local[key] = value


_OK = CheckResult(True)
# a set lookup: reading an Enum member off its class is slow on hot paths
_AXIOMS = frozenset((Rule.LogicalAxiom, Rule.NonLogicalAxiom))


def check_proof(tree: ProofTree, cache: Optional[dict] = None) -> CheckResult:
    """Validate every node of a proof tree.

    `cache` maps checked subtrees (hashed by identity) to their
    CheckResult and may be shared across calls when trees reuse immutable
    subproofs; it is purely an accelerator and keeps its subtrees alive.
    Returns a falsy result carrying the child-index path to the first
    failing node and a reason.
    """
    if cache is not None:
        hit = cache.get(tree)
        if hit is not None:
            return hit
    res = _check_node(tree, cache)
    if cache is not None:
        cache[tree] = res
    return res


def _check_node(tree, cache) -> CheckResult:
    rule = tree.rule
    seq = tree.sequent
    children = tree.children
    if rule in _AXIOMS:
        if children:
            return CheckResult(False, (), "axioms take no premises")
        if rule is Rule.LogicalAxiom:
            if not is_logical_axiom(seq):
                return CheckResult(False, (), "not a logical axiom")
        elif not is_nonlogical_axiom(seq):
            return CheckResult(False, (), "not a non-logical axiom")
        return _OK
    reason = _rule_failure(seq, tuple([c.sequent for c in children]), rule, tree.meta)
    if reason is not None:
        return CheckResult(False, (), f"{rule.value}: {reason}")
    for k, child in enumerate(children):
        # check_proof inlined: one cache lookup per child, no extra frame
        if cache is None:
            sub = _check_node(child, None)
        else:
            sub = cache.get(child)
            if sub is None:
                sub = cache[child] = _check_node(child, cache)
        if not sub.ok:
            return CheckResult(False, (k,) + sub.path, sub.reason)
    return _OK
