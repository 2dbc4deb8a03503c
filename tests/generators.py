"""Seeded random generators shared by the fuzz and acceptance suites."""

from __future__ import annotations

import random

from regverify.constraints import (ROUND0, And, Exists, Forall, Not, Or, PopAt,
                                   RegAt, Term)
from regverify.model import (INC, READ, ROUNDBASED, ROUNDLESS, WRITE, Action,
                             Protocol, Transition)
from regverify.semantics import Execution, initial_configuration


def random_protocol(rng: random.Random, max_states=5, max_symbols=3,
                    max_regs=2, max_trans=12, uninitialized=False,
                    min_initial=1) -> Protocol:
    nq = rng.randrange(1, max_states + 1)
    nd = rng.randrange(1, max_symbols + 1)
    nr = rng.randrange(1, max_regs + 1)
    states = tuple(f"s{i}" for i in range(nq))
    symbols = ("d0",) + tuple(f"v{i}" for i in range(1, nd))
    n_init = rng.randrange(min(min_initial, nq), nq + 1)
    initials = frozenset(rng.sample(range(nq), max(n_init, 1)))
    trans = []
    for _ in range(rng.randrange(0, max_trans + 1)):
        src, dst = rng.randrange(nq), rng.randrange(nq)
        reg = rng.randrange(nr)
        if rng.random() < 0.5 and nd > 1:
            trans.append(Transition(
                src, Action(WRITE, reg=reg, symbol=rng.randrange(1, nd)), dst))
        else:
            lo = 1 if uninitialized else 0
            if lo >= nd:
                continue
            trans.append(Transition(
                src, Action(READ, reg=reg, symbol=rng.randrange(lo, nd)), dst))
    return Protocol(flavor=ROUNDLESS, state_names=states,
                    initial_states=initials, register_count=nr,
                    symbol_names=symbols,
                    transitions=tuple(dict.fromkeys(trans)))


def random_constraint(rng: random.Random, p: Protocol):
    def atom():
        if rng.random() < 0.6:
            return PopAt(rng.randrange(p.num_states), ROUND0)
        return RegAt(rng.randrange(p.register_count), ROUND0,
                     rng.randrange(p.num_symbols))

    def node(depth):
        r = rng.random()
        if depth == 0 or r < 0.45:
            a = atom()
            return Not(a) if rng.random() < 0.4 else a
        kids = tuple(node(depth - 1) for _ in range(rng.randrange(2, 4)))
        return And(kids) if r < 0.75 else Or(kids)

    return node(2)


def random_dnf_constraint(rng: random.Random, p: Protocol):
    def literal():
        if rng.random() < 0.6:
            a = PopAt(rng.randrange(p.num_states), ROUND0)
        else:
            a = RegAt(rng.randrange(p.register_count), ROUND0,
                      rng.randrange(p.num_symbols))
        return Not(a) if rng.random() < 0.4 else a

    clauses = tuple(And(tuple(literal() for _ in range(rng.randrange(1, 4))))
                    for _ in range(rng.randrange(1, 4)))
    return Or(clauses)


def random_rb_protocol(rng: random.Random, max_states=4, max_symbols=3,
                       visibility_max=1, max_trans=7) -> Protocol:
    nq = rng.randrange(1, max_states + 1)
    nd = rng.randrange(2, max_symbols + 1)
    vis = rng.randrange(0, visibility_max + 1)
    states = tuple(f"s{i}" for i in range(nq))
    symbols = ("d0",) + tuple(f"v{i}" for i in range(1, nd))
    initials = frozenset(rng.sample(range(nq), rng.randrange(1, nq + 1)))
    trans = []
    for _ in range(rng.randrange(1, max_trans + 1)):
        src, dst = rng.randrange(nq), rng.randrange(nq)
        roll = rng.random()
        if roll < 0.25:
            trans.append(Transition(src, Action(INC), dst))
        elif roll < 0.6:
            trans.append(Transition(
                src, Action(WRITE, reg=0, symbol=rng.randrange(1, nd)), dst))
        else:
            trans.append(Transition(
                src, Action(READ, reg=0, symbol=rng.randrange(0, nd),
                            depth=rng.randrange(0, vis + 1)), dst))
    return Protocol(flavor=ROUNDBASED, state_names=states,
                    initial_states=initials, register_count=1,
                    symbol_names=symbols, visibility=vis,
                    transitions=tuple(dict.fromkeys(trans)))


def random_rb_constraint(rng: random.Random, p: Protocol, max_const=2):
    def term():
        return Term(rng.random() < 0.7, rng.randrange(0, max_const + 1))

    def atom(closed=False):
        t = Term(False, rng.randrange(0, max_const + 1)) if closed else term()
        if rng.random() < 0.6:
            return PopAt(rng.randrange(p.num_states), t)
        return RegAt(0, t, rng.randrange(p.num_symbols))

    def prop(depth, closed=False):
        if depth == 0 or rng.random() < 0.5:
            a = atom(closed)
            return Not(a) if rng.random() < 0.35 else a
        kids = tuple(prop(depth - 1, closed) for _ in range(2))
        return And(kids) if rng.random() < 0.5 else Or(kids)

    def apc():
        roll = rng.random()
        if roll < 0.4:
            return Exists(prop(1))
        if roll < 0.7:
            return Forall(prop(1))
        return prop(1, closed=True)

    n = rng.randrange(1, 3)
    if n == 1:
        return apc()
    kids = (apc(), apc())
    return And(kids) if rng.random() < 0.5 else Or(kids)


def random_rb_execution(rng: random.Random, p: Protocol, max_steps=30,
                        max_round=3) -> Execution:
    # imported here: the benchmark's corpus imports this module, and needs
    # none of the test-only helpers
    from reference import abstract_successors

    start = initial_configuration(p, {rng.choice(sorted(p.initial_states))})
    cur, moves = start, []
    for _ in range(rng.randrange(0, max_steps)):
        succs = abstract_successors(p, cur, window=(0, max_round))
        if not succs:
            break
        m, nxt = rng.choice(succs)
        moves.append(m)
        cur = nxt
    return Execution(start, tuple(moves))
