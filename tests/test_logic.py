"""Kernel tests: formulas, layered sets, sequents, rules, proof checking.

Rule instances below are worked out by hand from the schemata; each positive
case is paired with mutations that must be rejected.  Sides are sets, so a
schema matches whenever SOME reading of its contexts fits; the absorption
cases (principal formula already present in the context) are covered
explicitly.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicore import logic
from epicore.acceptability import emit_proof
from epicore.errors import InvalidInputError
from epicore.games import Coalition, PayoffVector, TUGame
from epicore.logic import (
    EMPTY_SET,
    Ach,
    And,
    Bel,
    CheckResult,
    FormulaSet,
    Geq,
    Implies,
    Not,
    Or,
    ProofTree,
    Rule,
    RuleMeta,
    ThoughtSequent,
    check_proof,
    is_logical_axiom,
    is_nonlogical_axiom,
    rule_instance_valid,
    strict_gain,
)

C1 = Coalition.of(1)
C2 = Coalition.of(2)
C12 = Coalition.of(1, 2)

P = Ach((4, 0), C1)
Q = Ach((0, 4), C2)
R = Ach((2, 2), C12)
G_TRUE = Geq((4, 0), C1, C1, (3, 0), C1)     # 4 >= 3 at player 1
G_FALSE = Geq((2, 0), C1, C1, (3, 0), C1)    # 2 >= 3 fails


def seq(ante, succ, prefix=()):
    return ThoughtSequent(prefix, ante, succ)


# ---------------------------------------------------------------------------
# formulas


def test_formula_equality_and_hash():
    assert Ach((4, 0), C1) == P and hash(Ach((4, 0), C1)) == hash(P)
    assert Ach((4, 0), C2) != P
    assert Not(P) == Not(Ach((4, 0), C1))
    assert And([P, Q]) == And([Q, P])
    assert Or([P, Q, P]) == Or([Q, P])          # members are a set
    assert And([P, Q]) != Or([P, Q])
    assert Implies(P, Q) != Implies(Q, P)
    assert Bel(1, P) != Bel(2, P)


def test_strict_gain_shares_the_singleton_but_keeps_its_keys():
    spelled = And([Geq((2, 1), C12, C1, (1, 0), C12),
                   Not(Geq((1, 0), C12, C1, (2, 1), C12))])
    a = strict_gain((2, 1), C12, 1, (1, 0), C12)
    b = strict_gain((3, 0), C12, 1, (1, 0), C12)
    assert a == spelled and hash(a) == hash(spelled) and a.key() == spelled.key()
    assert a.members[0].over is b.members[0].over == C1


def test_connectives_reject_empty():
    with pytest.raises(InvalidInputError):
        And([])
    with pytest.raises(InvalidInputError):
        Or([])
    with pytest.raises(InvalidInputError):
        Bel(0, P)


# ---------------------------------------------------------------------------
# layered sets


def test_formula_set_layering_is_invisible():
    base = frozenset([P, Q])
    a = FormulaSet.layered(base, [R])
    b = FormulaSet.of([P, Q, R])
    assert a == b and len(a) == 3 and R in a and P in a
    assert a.without(R) == FormulaSet.of([P, Q])
    assert a.without(P) == FormulaSet.of([Q, R])    # removal out of the base
    assert a.with_(R) is a                           # no-op add returns self
    assert FormulaSet.of([P]).issubset(a)
    assert a.issubset(a)
    assert not a.issubset(FormulaSet.of([P, R]))
    assert not EMPTY_SET


def test_formula_set_base_overlap_normalized():
    base = frozenset([P, Q])
    a = FormulaSet.layered(base, [P, R])
    assert len(a) == 3
    assert a == FormulaSet.of([P, Q, R])


# ---------------------------------------------------------------------------
# axioms


def test_logical_axiom_shape():
    assert is_logical_axiom(seq([P], [P], prefix=(1, 2)))
    assert not is_logical_axiom(seq([P], [Q]))
    assert not is_logical_axiom(seq([P, Q], [P, Q]))     # not singletons
    assert not is_logical_axiom(seq([], []))


def test_nonlogical_axiom_comparisons():
    assert is_nonlogical_axiom(seq([], [G_TRUE]))
    assert not is_nonlogical_axiom(seq([], [G_FALSE]))
    assert is_nonlogical_axiom(seq([], [Not(G_FALSE)]))
    assert not is_nonlogical_axiom(seq([], [Not(G_TRUE)]))
    # every compared player must pass
    g_mixed = Geq((4, 0), C12, C12, (3, 3), C12)
    assert not is_nonlogical_axiom(seq([], [g_mixed]))
    assert is_nonlogical_axiom(seq([], [Not(g_mixed)]))
    # shape constraints
    assert not is_nonlogical_axiom(seq([P], [G_TRUE]))
    assert not is_nonlogical_axiom(seq([], [G_TRUE, P]))
    assert not is_nonlogical_axiom(seq([], [P]))


def test_bundle_comparisons_go_by_utility():
    # (1/4, 0) is lexicographically above (0, 1/2) but worth 1/4 < 1/2
    low, high = ((F(1, 4), F(0)),), ((F(0), F(1, 2)),)
    assert not is_nonlogical_axiom(seq([], [Geq(low, C1, C1, high, C1)]))
    assert is_nonlogical_axiom(seq([], [Not(Geq(low, C1, C1, high, C1))]))
    assert is_nonlogical_axiom(seq([], [Geq(high, C1, C1, low, C1)]))
    # (1/2, 1/2) is worth 2, (1, 0) only 1; equal utilities compare both ways
    mixed, corner = ((F(1, 2), F(1, 2)),), ((F(1), F(0)),)
    assert is_nonlogical_axiom(seq([], [Geq(mixed, C1, C1, corner, C1)]))
    assert is_nonlogical_axiom(seq([], [Geq(corner, C1, C1, ((F(0), F(1)),), C1)]))


@pytest.mark.parametrize("left, right, over", [
    ((1, 0), ((F(1), F(0)), (F(0), F(0))), C1),
    (((F(1), F(0)), (F(0), F(0))), (1, 0), C12),
    # player 1 refutes in grid units, player 2 pairs a unit with a bundle
    ((0, 1), (1, (F(0), F(0))), C12),
], ids=["unit-vs-bundle", "bundle-vs-unit", "refuted-then-mixed"])
def test_mixed_kind_comparison_is_no_axiom_and_never_raises(left, right, over):
    g = Geq(left, C12, over, right, C12)
    assert not is_nonlogical_axiom(seq([], [g]))
    assert not is_nonlogical_axiom(seq([], [Not(g)]))
    for f in (g, Not(g)):
        res = check_proof(ProofTree(seq([], [f]), Rule.NonLogicalAxiom))
        assert not res
        assert "non-logical axiom" in res.reason


@pytest.mark.parametrize("left, right", [((1,), (0,)), ((1, 1), (0,)), ((1,), (0, 0))],
                         ids=["both-short", "right-short", "left-short"])
def test_geq_refuses_an_over_past_either_payload(left, right):
    # the kernel reads both payloads at every member of `over`
    with pytest.raises(InvalidInputError, match="exceeds the payload length"):
        Geq(left, C1, C12, right, C1)


@pytest.mark.parametrize("bundle", [("a", "b"), (F(-1), F(4)), (0.5, F(0))],
                         ids=["strings", "negative", "float"])
def test_bundle_of_non_rationals_is_no_axiom_and_never_raises(bundle):
    for left, right in (((bundle,), (bundle,)), ((bundle,), ((F(0), F(0)),))):
        g = Geq(left, C1, C1, right, C1)
        for f in (g, Not(g)):
            assert not check_proof(ProofTree(seq([], [f]), Rule.NonLogicalAxiom))


# ---------------------------------------------------------------------------
# structural rules, one by one


def test_th_weakening():
    prem = seq([P], [Q], prefix=(1,))
    assert rule_instance_valid(seq([P, R], [Q, G_TRUE], prefix=(1,)), [prem], Rule.Th)
    assert rule_instance_valid(seq([P], [Q], prefix=(1,)), [prem], Rule.Th)
    assert not rule_instance_valid(seq([R], [Q], prefix=(1,)), [prem], Rule.Th)
    assert not rule_instance_valid(seq([P, R], [Q], prefix=(2,)), [prem], Rule.Th)


def test_cut():
    p1 = seq([], [G_TRUE])
    p2 = seq([G_TRUE, P], [Q])
    cut = RuleMeta(cut=G_TRUE)
    assert rule_instance_valid(seq([P], [Q]), [p1, p2], Rule.Cut, cut)
    assert not rule_instance_valid(seq([P], [Q]), [p1, p2], Rule.Cut, RuleMeta(cut=P))
    assert not rule_instance_valid(seq([], [Q]), [p1, p2], Rule.Cut, cut)
    # the cut formula may also survive in a context set
    p3 = seq([G_TRUE], [G_TRUE])
    p4 = seq([G_TRUE], [])
    assert rule_instance_valid(seq([G_TRUE], []), [p3, p4], Rule.Cut, cut)
    # a hinted cut formula must occur in both premises
    assert not rule_instance_valid(seq([G_TRUE, P], [G_TRUE, Q]), [p1, p2], Rule.Cut,
                                   RuleMeta(cut=R))
    assert not rule_instance_valid(seq([P], [Q]), [p1, seq([P], [Q])], Rule.Cut,
                                   RuleMeta(cut=G_TRUE))


def test_not_left():
    prem = seq([Q], [P])
    hint = RuleMeta(principal=P)
    assert rule_instance_valid(seq([Not(P), Q], []), [prem], Rule.NotLeft, hint)
    # absorption: P may sit inside Theta as well
    prem2 = seq([Q], [P, R])
    assert rule_instance_valid(seq([Not(P), Q], [R]), [prem2], Rule.NotLeft, hint)
    assert rule_instance_valid(seq([Not(P), Q], [P, R]), [prem2], Rule.NotLeft, hint)
    assert not rule_instance_valid(seq([Not(P)], []), [prem], Rule.NotLeft, hint)
    assert not rule_instance_valid(seq([Not(Q), Q], []), [prem], Rule.NotLeft,
                                   RuleMeta(principal=Q))
    # the kernel checks only the instance the hint names
    assert not rule_instance_valid(seq([Not(P), Not(R), Q], []), [seq([Not(R), Q], [P])],
                                   Rule.NotLeft, RuleMeta(principal=R))


def test_not_right():
    prem = seq([P, Q], [R])
    hint = RuleMeta(principal=P)
    assert rule_instance_valid(seq([Q], [R, Not(P)]), [prem], Rule.NotRight, hint)
    assert not rule_instance_valid(seq([Q], [Not(P)]), [prem], Rule.NotRight, hint)
    assert not rule_instance_valid(seq([Q], [R, Not(Q)]), [prem], Rule.NotRight,
                                   RuleMeta(principal=Q))
    # keeping P on the left as well is a legal reading of Gamma
    assert rule_instance_valid(seq([P, Q], [R, Not(P)]), [prem], Rule.NotRight, hint)


def test_imp_left():
    imp = Implies(P, Q)
    hint = RuleMeta(principal=imp)
    p1 = seq([R], [G_TRUE, P])
    p2 = seq([R, Q], [G_TRUE])
    assert rule_instance_valid(seq([imp, R], [G_TRUE]), [p1, p2], Rule.ImpLeft, hint)
    assert not rule_instance_valid(seq([imp, R], [G_TRUE]), [p2, p1], Rule.ImpLeft, hint)
    assert not rule_instance_valid(seq([imp], [G_TRUE]), [p1, p2], Rule.ImpLeft, hint)
    # the second premise keeps the conclusion's succedent
    assert not rule_instance_valid(seq([imp, R], [G_TRUE]),
                                   [p1, seq([R, Q], [G_TRUE, P])], Rule.ImpLeft, hint)


def test_imp_right():
    imp = Implies(P, Q)
    hint = RuleMeta(principal=imp)
    prem = seq([P, R], [Q])
    assert rule_instance_valid(seq([R], [imp]), [prem], Rule.ImpRight, hint)
    prem2 = seq([P, R], [Q, G_TRUE])
    assert rule_instance_valid(seq([R], [imp, G_TRUE]), [prem2], Rule.ImpRight, hint)
    assert not rule_instance_valid(seq([R], [Implies(Q, P)]), [prem], Rule.ImpRight,
                                   RuleMeta(principal=Implies(Q, P)))
    # A must join the antecedent, B' must sit in the premise succedent
    assert not rule_instance_valid(seq([R], [imp]), [seq([R], [Q])], Rule.ImpRight, hint)
    assert not rule_instance_valid(seq([R], [imp, G_TRUE]), [seq([P, R], [G_TRUE])],
                                   Rule.ImpRight, hint)


def test_and_left():
    conj = And([P, Q])
    pick_p = RuleMeta(principal=conj, member=P)
    assert rule_instance_valid(seq([conj, R], [G_TRUE]), [seq([P, R], [G_TRUE])],
                               Rule.AndLeft, pick_p)
    assert rule_instance_valid(seq([conj, R], [G_TRUE]), [seq([Q, R], [G_TRUE])],
                               Rule.AndLeft, RuleMeta(principal=conj, member=Q))
    # absorption: the conjunction may stay in the premise context
    assert rule_instance_valid(seq([conj], [G_TRUE]), [seq([P, conj], [G_TRUE])],
                               Rule.AndLeft, pick_p)
    assert not rule_instance_valid(seq([conj, R], [G_TRUE]), [seq([G_TRUE, R], [G_TRUE])],
                                   Rule.AndLeft, RuleMeta(principal=conj, member=G_TRUE))
    assert not rule_instance_valid(seq([conj, R], [G_TRUE]),
                                   [seq([P, R], [G_TRUE])],
                                   Rule.AndLeft, RuleMeta(principal=conj, member=R))
    # the succedent is untouched
    assert not rule_instance_valid(seq([conj, R], [G_TRUE]),
                                   [seq([P, R], [G_TRUE, Q])], Rule.AndLeft, pick_p)
    # the kernel checks only the principal and the member the hints name
    other = And([Q, R])
    assert not rule_instance_valid(seq([conj, other], [G_TRUE]),
                                   [seq([P, other], [G_TRUE])],
                                   Rule.AndLeft, RuleMeta(principal=other, member=P))
    assert not rule_instance_valid(seq([conj, R], [G_TRUE]), [seq([P, R], [G_TRUE])],
                                   Rule.AndLeft, RuleMeta(principal=conj, member=Q))


def test_and_right():
    conj = And([P, Q, R])
    hint = RuleMeta(principal=conj)
    prems = [seq([G_TRUE], [f]) for f in conj.members]
    assert rule_instance_valid(seq([G_TRUE], [conj]), prems, Rule.AndRight, hint)
    # the premises follow the members in order
    assert not rule_instance_valid(seq([G_TRUE], [conj]), prems[::-1], Rule.AndRight, hint)
    assert not rule_instance_valid(seq([G_TRUE], [conj]), prems[:2], Rule.AndRight, hint)
    assert not rule_instance_valid(seq([], [conj]), prems, Rule.AndRight, hint)


def test_or_left():
    disj = Or([P, Q])
    hint = RuleMeta(principal=disj)
    prems = [seq([f, R], [G_TRUE]) for f in disj.members]
    assert rule_instance_valid(seq([disj, R], [G_TRUE]), prems, Rule.OrLeft, hint)
    assert not rule_instance_valid(seq([disj, R], [G_TRUE]), prems[::-1], Rule.OrLeft, hint)
    assert not rule_instance_valid(seq([disj, R], [G_TRUE]), prems[:1], Rule.OrLeft, hint)
    assert not rule_instance_valid(seq([disj, R], [G_TRUE]),
                                   [prems[0], seq([Q], [G_TRUE])], Rule.OrLeft, hint)


def test_or_right():
    disj = Or([P, Q])
    pick_p = RuleMeta(principal=disj, member=P)
    assert rule_instance_valid(seq([R], [disj]), [seq([R], [P])], Rule.OrRight, pick_p)
    assert rule_instance_valid(seq([R], [disj]), [seq([R], [Q])], Rule.OrRight,
                               RuleMeta(principal=disj, member=Q))
    assert not rule_instance_valid(seq([R], [disj]), [seq([R], [R])], Rule.OrRight,
                                   RuleMeta(principal=disj, member=R))
    # disjunct already present alongside the disjunction
    assert rule_instance_valid(seq([R], [disj, P]), [seq([R], [P])], Rule.OrRight, pick_p)
    # the antecedent is untouched
    assert not rule_instance_valid(seq([R], [disj]), [seq([R, Q], [P])], Rule.OrRight,
                                   pick_p)


# One instance of each rule that needs hints, valid with them; without any
# one of them the kernel rejects the node and names the missing hint.
HINTED_INSTANCES = {
    Rule.Cut: (seq([P], [Q]), [seq([], [G_TRUE]), seq([G_TRUE, P], [Q])],
               RuleMeta(cut=G_TRUE)),
    Rule.NotLeft: (seq([Not(P), Q], []), [seq([Q], [P])], RuleMeta(principal=P)),
    Rule.NotRight: (seq([Q], [R, Not(P)]), [seq([P, Q], [R])], RuleMeta(principal=P)),
    Rule.ImpLeft: (seq([Implies(P, Q), R], [G_TRUE]),
                   [seq([R], [G_TRUE, P]), seq([R, Q], [G_TRUE])],
                   RuleMeta(principal=Implies(P, Q))),
    Rule.ImpRight: (seq([R], [Implies(P, Q)]), [seq([P, R], [Q])],
                    RuleMeta(principal=Implies(P, Q))),
    Rule.AndLeft: (seq([And([P, Q]), R], [G_TRUE]), [seq([P, R], [G_TRUE])],
                   RuleMeta(principal=And([P, Q]), member=P)),
    Rule.AndRight: (seq([R], [And([P, Q])]), [seq([R], [P]), seq([R], [Q])],
                    RuleMeta(principal=And([P, Q]))),
    Rule.OrLeft: (seq([Or([P, Q]), R], [G_TRUE]),
                  [seq([P, R], [G_TRUE]), seq([Q, R], [G_TRUE])],
                  RuleMeta(principal=Or([P, Q]))),
    Rule.OrRight: (seq([R], [Or([P, Q])]), [seq([R], [P])],
                   RuleMeta(principal=Or([P, Q]), member=P)),
    Rule.EpistemicDist: (seq([Bel(1, P)], [Bel(1, Q)], prefix=(3,)),
                         [seq([P], [Q], prefix=(3, 1))], RuleMeta(agent=1)),
}


@pytest.mark.parametrize("rule", list(HINTED_INSTANCES), ids=lambda r: r.value)
def test_a_node_without_a_required_hint_is_rejected(rule):
    concl, prems, meta = HINTED_INSTANCES[rule]
    assert rule_instance_valid(concl, prems, rule, meta)
    named = [k for k in RuleMeta.__slots__ if getattr(meta, k) is not None]
    for missing in named:
        fields = {k: getattr(meta, k) for k in named if k != missing}
        tree = ProofTree(concl, rule, tuple(ProofTree(p, Rule.Th) for p in prems),
                         RuleMeta(**fields))
        res = check_proof(tree)
        assert not res and res.path == ()
        assert res.reason == f"{rule.value}: {rule.value} needs the {missing} hint"
    assert not rule_instance_valid(concl, prems, rule)


def test_every_rule_is_checked_and_asks_only_for_hints_a_file_can_carry():
    # a new Rule member needs a checker, and a checker's hints must be
    # RuleMeta fields, which a proof file's "meta" object can name
    axioms = {Rule.LogicalAxiom, Rule.NonLogicalAxiom}
    assert set(Rule) == axioms | set(logic._RULES)
    assert not axioms & set(logic._RULES)
    for _, _, hints, _ in logic._RULES.values():
        assert set(hints) <= set(RuleMeta.__slots__)


# Each connective rule on an instance built around a principal formula X; the
# instance is valid exactly when X has the rule's connective.  A hint naming a
# formula of another type must be rejected, not followed into its fields.
CONNECTIVE_INSTANCES = {
    Rule.ImpLeft: (Implies, lambda x: (seq([x, R], [G_TRUE]),
                                       [seq([R], [G_TRUE, P]), seq([R, Q], [G_TRUE])])),
    Rule.ImpRight: (Implies, lambda x: (seq([R], [x]), [seq([P, R], [Q])])),
    Rule.AndLeft: (And, lambda x: (seq([x, R], [G_TRUE]), [seq([P, R], [G_TRUE])])),
    Rule.AndRight: (And, lambda x: (seq([R], [x]), [seq([R], [P]), seq([R], [Q])])),
    Rule.OrLeft: (Or, lambda x: (seq([x, R], [G_TRUE]),
                                 [seq([P, R], [G_TRUE]), seq([Q, R], [G_TRUE])])),
    Rule.OrRight: (Or, lambda x: (seq([R], [x]), [seq([R], [P])])),
}
PRINCIPALS = [Implies(P, Q), And([P, Q]), Or([P, Q]), Not(P), P]


@pytest.mark.parametrize("rule", list(CONNECTIVE_INSTANCES), ids=lambda r: r.value)
def test_hinted_principal_of_the_wrong_type_is_rejected(rule):
    kind, build = CONNECTIVE_INSTANCES[rule]
    for x in PRINCIPALS:
        meta = RuleMeta(principal=x, member=P)
        assert rule_instance_valid(*build(x), rule, meta) is (type(x) is kind)


# AndLeft on sides that share one base object: the kernel compares the deltas
# directly there.  Each instance is (base, conclusion delta, premise delta,
# member, expected verdict); the base GAMMA_CONJ holds the principal itself.
CONJ = And([P, G_TRUE])
GAMMA = frozenset([Q, Not(R)])
GAMMA_CONJ = GAMMA | {CONJ}
S = Not(G_FALSE)                          # a bystander formula
SHARED_BASE_AND_LEFT = [
    # correct instances
    (GAMMA, [CONJ], [P], P, True),                  # principal leaves
    (GAMMA, [CONJ], [CONJ, P], P, True),            # principal stays
    (GAMMA, [CONJ, S], [S, G_TRUE], G_TRUE, True),  # bystander in both deltas
    (GAMMA | {P}, [CONJ], [], P, True),             # member already in base
    (GAMMA | {P}, [CONJ], [CONJ], P, True),
    (GAMMA, [CONJ, P], [P], P, True),               # member already in delta
    (GAMMA_CONJ, [], [P], P, True),                 # principal in the base
    # mutants
    (GAMMA, [CONJ], [R], R, False),                 # wrong member
    (GAMMA, [CONJ], [Q], Q, False),                 # wrong member, in base
    (GAMMA, [S], [P], P, False),                    # principal absent
    (GAMMA, [S], [S, P], P, False),
    (GAMMA, [CONJ], [P, S], P, False),              # extra formula in premise
    (GAMMA, [CONJ], [CONJ, P, S], P, False),
    (GAMMA, [CONJ, S], [P], P, False),              # bystander dropped
    (GAMMA, [CONJ], [G_TRUE], P, False),            # premise holds the other member
    (GAMMA, [CONJ], [], P, False),                  # member missing
    (GAMMA_CONJ, [], [P, S], P, False),             # principal in base, extra formula
    (GAMMA_CONJ, [], [], P, False),                 # principal in base, member missing
]


@pytest.mark.parametrize("base,concl_delta,prem_delta,member,expected",
                         SHARED_BASE_AND_LEFT)
def test_shared_base_rules_agree_with_flat_sets(base, concl_delta, prem_delta,
                                                member, expected):
    # each instance as AndLeft, and mirrored onto the succedent as OrRight
    for rule, principal in ((Rule.AndLeft, CONJ), (Rule.OrRight, Or(CONJ.members))):
        swap = {CONJ: principal}
        shared = frozenset(swap.get(f, f) for f in base)
        concl = FormulaSet.layered(shared, [swap.get(f, f) for f in concl_delta])
        prem = FormulaSet.layered(shared, [swap.get(f, f) for f in prem_delta])
        meta = RuleMeta(principal=principal, member=member)
        for c, p in ((concl, prem), (FormulaSet.of(concl), FormulaSet.of(prem))):
            if rule is Rule.AndLeft:
                instance = (seq(c, [G_FALSE]), [seq(p, [G_FALSE])])
            else:
                instance = (seq([G_FALSE], c), [seq([G_FALSE], p)])
            assert rule_instance_valid(*instance, rule, meta) is expected


DISJ = Or([P, S])
LAYER_FORMULAS = [P, Q, R, G_TRUE, S, CONJ, DISJ, Not(P)]


@settings(max_examples=300, deadline=None)
@given(st.sets(st.sampled_from(LAYER_FORMULAS), max_size=4),
       st.sets(st.sampled_from(LAYER_FORMULAS), max_size=3),
       st.lists(st.sets(st.sampled_from(LAYER_FORMULAS), max_size=3),
                min_size=2, max_size=2),
       st.sampled_from(LAYER_FORMULAS))
def test_layered_sets_agree_with_flat_sets(base, concl_delta, prem_deltas, member):
    # the shared-base paths of AndLeft, NotRight and OrLeft give the verdict
    # of the generic path on the same contents
    base = frozenset(base)
    concl = FormulaSet.layered(base, concl_delta)
    prems = [FormulaSet.layered(base, d) for d in prem_deltas]
    instances = [
        (Rule.AndLeft, RuleMeta(principal=CONJ, member=member),
         lambda c, ps: (seq(c, []), [seq(ps[0], [])])),
        (Rule.NotRight, RuleMeta(principal=member),
         lambda c, ps: (seq(c, [Not(member)]), [seq(ps[0], [])])),
        (Rule.OrLeft, RuleMeta(principal=DISJ),
         lambda c, ps: (seq(c, []), [seq(p, []) for p in ps])),
    ]
    for rule, meta, build in instances:
        layered = rule_instance_valid(*build(concl, prems), rule, meta)
        flat = rule_instance_valid(*build(FormulaSet.of(concl),
                                          [FormulaSet.of(p) for p in prems]), rule, meta)
        assert layered == flat


def test_epistemic_dist():
    prem = seq([P, Q], [R], prefix=(3, 1))
    concl = seq([Bel(1, P), Bel(1, Q)], [Bel(1, R)], prefix=(3,))
    agent = RuleMeta(agent=1)
    assert rule_instance_valid(concl, [prem], Rule.EpistemicDist, agent)
    # the hint must name the formulas' agent
    assert not rule_instance_valid(concl, [seq([P, Q], [R], prefix=(3, 2))],
                                   Rule.EpistemicDist, RuleMeta(agent=2))
    # at most one formula on the right
    bad = seq([Bel(1, P)], [Bel(1, Q), Bel(1, R)], prefix=(3,))
    assert not rule_instance_valid(bad, [seq([P], [Q, R], prefix=(3, 1))],
                                   Rule.EpistemicDist, agent)
    # all formulas must carry the same agent
    mixed = seq([Bel(1, P), Bel(2, Q)], [Bel(1, R)], prefix=(3,))
    assert not rule_instance_valid(mixed, [prem], Rule.EpistemicDist, agent)
    # and every formula must be a belief
    assert not rule_instance_valid(seq([P], [Bel(1, R)], prefix=(3,)),
                                   [seq([P], [R], prefix=(3, 1))], Rule.EpistemicDist, agent)
    assert not rule_instance_valid(seq([Bel(1, P)], [R], prefix=(3,)),
                                   [seq([P], [R], prefix=(3, 1))], Rule.EpistemicDist, agent)
    # the premise is the conclusion with the belief operator stripped
    assert not rule_instance_valid(concl, [seq([P], [R], prefix=(3, 1))],
                                   Rule.EpistemicDist, agent)
    assert not rule_instance_valid(concl, [seq([P, Q], [], prefix=(3, 1))],
                                   Rule.EpistemicDist, agent)
    # the premise prefix must be the conclusion prefix extended by the agent
    assert not rule_instance_valid(concl, [seq([P, Q], [R], prefix=(1, 3))],
                                   Rule.EpistemicDist, agent)
    assert not rule_instance_valid(concl, [seq([P, Q], [R], prefix=(3,))],
                                   Rule.EpistemicDist, agent)
    # empty sequents need the agent hint
    e_prem = seq([], [], prefix=(2,))
    e_concl = seq([], [], prefix=())
    assert not rule_instance_valid(e_concl, [e_prem], Rule.EpistemicDist)
    assert rule_instance_valid(e_concl, [e_prem], Rule.EpistemicDist, RuleMeta(agent=2))


def test_arity_enforced():
    prem = seq([P], [P])
    assert not rule_instance_valid(seq([P, Q], [P]), [prem, prem], Rule.Th)
    assert not rule_instance_valid(seq([P], [P]), [prem], Rule.Cut)
    assert not rule_instance_valid(seq([P], [P]), [], Rule.AndRight)
    assert not rule_instance_valid(seq([P], [P]), [prem], Rule.LogicalAxiom)


# ---------------------------------------------------------------------------
# whole proofs


def build_small_proof():
    # B[ -> not not G_TRUE ] via the comparison axiom and two negation rules
    ax = ProofTree(seq([], [G_TRUE]), Rule.NonLogicalAxiom)
    nl = ProofTree(seq([Not(G_TRUE)], []), Rule.NotLeft, (ax,), RuleMeta(principal=G_TRUE))
    return ProofTree(seq([], [Not(Not(G_TRUE))]), Rule.NotRight, (nl,),
                     RuleMeta(principal=Not(G_TRUE)))


def test_check_proof_accepts_valid_tree():
    assert check_proof(build_small_proof())


def test_check_proof_locates_corruption():
    ax = ProofTree(seq([], [G_FALSE]), Rule.NonLogicalAxiom)      # false comparison
    nl = ProofTree(seq([Not(G_FALSE)], []), Rule.NotLeft, (ax,), RuleMeta(principal=G_FALSE))
    nr = ProofTree(seq([], [Not(Not(G_FALSE))]), Rule.NotRight, (nl,),
                   RuleMeta(principal=Not(G_FALSE)))
    res = check_proof(nr)
    assert not res
    assert res.path == (0, 0)
    assert "non-logical axiom" in res.reason


def test_check_proof_rejects_axiom_with_children():
    ax = ProofTree(seq([P], [P]), Rule.LogicalAxiom,
                   (ProofTree(seq([P], [P]), Rule.LogicalAxiom),))
    assert not check_proof(ax)


def test_check_proof_rejects_dangling_rule():
    # Th conclusion whose premise subtree proves something else
    la = ProofTree(seq([P], [P]), Rule.LogicalAxiom)
    th = ProofTree(seq([Q], [P, Q]), Rule.Th, (la,))
    assert not check_proof(th)


def test_check_proof_cache_is_reusable(monkeypatch):
    # the kernel reads its cache and never writes it; a subtree the caller
    # recorded there is not checked again
    shared = build_small_proof()
    wrap1 = ProofTree(seq([P], [Not(Not(G_TRUE))]), Rule.Th, (shared,))
    wrap2 = ProofTree(seq([Q], [Not(Not(G_TRUE))]), Rule.Th, (shared,))
    cache = {}
    assert check_proof(wrap1, cache)
    assert cache == {}
    cache[shared] = check_proof(shared)
    visited = []
    inner = logic._check_node

    def counted(tree, c):
        visited.append(tree)
        return inner(tree, c)

    monkeypatch.setattr(logic, "_check_node", counted)
    assert check_proof(wrap2, cache)
    assert len(visited) == 1 and visited[0] is wrap2
    assert list(cache) == [shared]


def test_stale_cache_entry_never_vouches_for_a_new_node():
    # a freed node's memory is soon reused by the next node; its cache
    # entry must not answer for whatever lands there
    cache = {}
    for _ in range(50):
        good = ProofTree(seq([], [G_TRUE]), Rule.NonLogicalAxiom)
        cache[good] = check_proof(good)
        assert cache[good]
        bad_sequent = seq([], [G_FALSE])
        del good
        bad = ProofTree(bad_sequent, Rule.NonLogicalAxiom)
        assert not check_proof(bad, cache)


def test_check_proof_meters_its_reads_on_the_bound_six_proof(monkeypatch):
    # the README's acceptable proof reads only the members of its AndLeft
    # principals: 338 conjunctions of 3 and 35 strict gains of 2, 1,084 reads
    game = TUGame.from_values(2, {"1": 3, "2": 3, "1,2": 3}, bound=6)
    proof = emit_proof(game, 1, ["1", "2", "1,2"], PayoffVector.of(3, 0))
    assert proof.size() == 1389
    monkeypatch.setattr(logic, "MAX_READS", 1084)
    assert check_proof(proof)
    monkeypatch.setattr(logic, "MAX_READS", 1083)
    with pytest.raises(InvalidInputError, match="would read more than 1083 formulas"):
        check_proof(proof)
    # the allowance ends with the check: set algebra outside one is free
    assert logic._allowance is None


# ---------------------------------------------------------------------------
# property tests


FORMULAS = st.sampled_from([P, Q, R, G_TRUE, Not(P), And([P, Q]), Or([Q, R])])


@settings(max_examples=50, deadline=None)
@given(st.sets(FORMULAS, max_size=4), st.sets(FORMULAS, max_size=4),
       st.sets(FORMULAS, max_size=3), st.sets(FORMULAS, max_size=3))
def test_th_accepts_exactly_supersets(a1, s1, a2, s2):
    prem = seq(a1, s1)
    concl = seq(a1 | a2, s1 | s2)
    assert rule_instance_valid(concl, [prem], Rule.Th)
    intruder = Ach((9, 9), C12)
    assert not rule_instance_valid(concl, [seq(a1 | {intruder}, s1)], Rule.Th)
    assert not rule_instance_valid(concl, [seq(a1, s1 | {intruder})], Rule.Th)


@settings(max_examples=50, deadline=None)
@given(st.sets(FORMULAS, min_size=1, max_size=4))
def test_logical_axiom_iff_singleton_match(fs):
    s = seq(fs, fs)
    assert is_logical_axiom(s) == (len(fs) == 1)


TREE_FORMULAS = [P, Q, R, G_TRUE, G_FALSE, Not(P), Not(G_TRUE), And([P, Q]), Or([Q, R]),
                 Implies(P, Q), Bel(1, P), Bel(1, Q), Bel(2, R),
                 Geq(((F(1), F(0)), 0), C1, C1, (0, 0), C1)]   # a bundle against a unit
TREE_BASE = frozenset([P, And([P, Q]), Or([Q, R])])
_DELTAS = st.sets(st.sampled_from(TREE_FORMULAS), max_size=3)
_SIDES = st.one_of(_DELTAS.map(FormulaSet.of),
                   _DELTAS.map(lambda d: FormulaSet.layered(TREE_BASE, d)))
_HINTS = st.one_of(st.none(), st.sampled_from(TREE_FORMULAS))
_METAS = st.one_of(st.none(), st.builds(RuleMeta, _HINTS, _HINTS, _HINTS,
                                        st.one_of(st.none(), st.integers(1, 3))))
_SEQUENTS = st.builds(ThoughtSequent, st.lists(st.integers(1, 3), max_size=2), _SIDES, _SIDES)
_AXIOM_SHAPES = st.sampled_from(TREE_FORMULAS).flatmap(lambda f: st.sampled_from([
    ProofTree(seq([], [f]), Rule.NonLogicalAxiom), ProofTree(seq([f], [f]), Rule.LogicalAxiom)]))
_TREES = st.recursive(
    st.one_of(_AXIOM_SHAPES, st.builds(ProofTree, _SEQUENTS, st.sampled_from(list(Rule)))),
    lambda kids: st.builds(ProofTree, _SEQUENTS, st.sampled_from(list(Rule)),
                           st.lists(kids, min_size=1, max_size=3).map(tuple), _METAS),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_check_proof_answers_every_small_tree(tree):
    # any rule over any sides, hints and children: a result, never an
    # exception, at the root and at every subtree (the root's own check
    # stops at the first node that fails)
    stack = [tree]
    while stack:
        node = stack.pop()
        assert isinstance(check_proof(node), CheckResult)
        stack.extend(node.children)
