"""Constructions from the paper's proofs that no route or CLI verb runs.

They check the lemmas the solvers rely on: the normal form of round-based
executions and its per-round step bound, the copycat construction and the
realization of abstract executions by concrete ones, the COVER-to-TARGET
joker reduction, and the reading of a DNF clause as final-configuration
obligations.
"""

from regverify.constraints import (ClauseDecomposition, _collect_leaves,
                                   _is_apc_leaf)
from regverify.errors import (EmptySupport, NotEnabled, NotInitialState,
                              RegverifyError, ReplayFailure)
from regverify.model import INC, READ, ROUNDLESS, WRITE, Action, Protocol, \
    Transition
from regverify.semantics import (ABSTRACT, CONCRETE, ConcreteConfig,
                                 Execution, Move, concrete_step, initial_regs,
                                 move_dest, move_source, mset_add, mset_count,
                                 multiset, replay, replay_configs)


class TargetNotPopulated(RegverifyError):
    """Copycat extension target is absent from the final configuration."""


# --- execution normal form ------------------------------------------------------

def _reads_key(m: Move):
    a = m.trans.action
    if a.kind != READ:
        return None
    return (m.rnd - a.depth, a.reg)


def _writes_key(m: Move):
    a = m.trans.action
    if a.kind != WRITE:
        return None
    return (m.rnd, a.reg)


def normalize_execution(p: Protocol, exec: Execution) -> Execution:
    """Rewrite an abstract execution into normal form.

    Iteratively: drop non-deserting reads/increments that change nothing,
    drop non-deserting writes that neither populate nor are ever read before
    being overwritten (final register values stay), and make non-deserting
    any desertion whose location is populated again later.  Start and end
    configurations are preserved.
    """
    moves = list(exec.moves)
    while True:
        configs = replay_configs(p, Execution(exec.start, tuple(moves)),
                                 ABSTRACT)
        action = None
        for i, m in enumerate(moves):
            kind = m.trans.action.kind
            src = (m.trans.source, m.rnd)
            if m.desert:
                if any(src in configs[j].pop
                       for j in range(i + 1, len(configs))):
                    action = ("flip", i)
                    break
                continue
            if configs[i + 1] == configs[i]:
                action = ("drop", i)
                break
            if kind == WRITE and configs[i + 1].pop == configs[i].pop:
                key = (m.rnd, m.trans.action.reg)
                needed = False
                overwritten = False
                for j in range(i + 1, len(moves)):
                    if _reads_key(moves[j]) == key:
                        needed = True
                        break
                    if _writes_key(moves[j]) == key:
                        overwritten = True
                        break
                if not needed and overwritten:
                    action = ("drop", i)
                    break
        if action is None:
            final = replay_configs(p, Execution(exec.start, tuple(moves)),
                                   ABSTRACT)[-1]
            orig = replay_configs(p, exec, ABSTRACT)[-1]
            if final != orig:
                raise ReplayFailure("normalization changed the endpoint")
            return Execution(exec.start, tuple(moves))
        op, i = action
        if op == "drop":
            del moves[i]
        else:
            moves[i] = Move(moves[i].trans, moves[i].rnd, False)


def normal_form_violations(p: Protocol, exec: Execution) -> list[str]:
    """Check the three per-step normal-form conditions; empty when normal.

    A step passes when it deserts its source, populates a never-before
    populated location, or writes a symbol that is read before the next
    write to the same register (or is that register's final value).
    """
    configs = replay_configs(p, exec, ABSTRACT)
    out = []
    ever: set = set(exec.start.pop)
    for i, m in enumerate(exec.moves):
        a = m.trans.action
        dst_round = m.rnd + 1 if a.kind == INC else m.rnd
        dst = (m.trans.dest, dst_round)
        ok = False
        if m.desert:
            ok = True
        elif dst not in ever:
            ok = True
        elif a.kind == WRITE:
            key = (m.rnd, a.reg)
            later_write = False
            for j in range(i + 1, len(exec.moves)):
                if _reads_key(exec.moves[j]) == key:
                    ok = True
                    break
                if _writes_key(exec.moves[j]) == key:
                    later_write = True
                    break
            if not later_write and not ok:
                ok = True  # final value of the register
        if not ok:
            out.append(f"step {i} ({a.kind} at round {m.rnd}) is not justified")
        if dst not in configs[i].pop:
            ever.add(dst)
    return out


def per_round_step_counts(exec: Execution) -> dict[int, int]:
    counts: dict[int, int] = {}
    for m in exec.moves:
        counts[m.rnd] = counts.get(m.rnd, 0) + 1
    return counts


def normal_form_round_bound(p: Protocol) -> int:
    """Per-round step bound for normal-form executions: |Q| * (2v + 5)."""
    return p.num_states * (2 * (p.visibility or 0) + 5)


def locations_deserted_more_than_once(p: Protocol, exec: Execution) -> list:
    seen: dict = {}
    for m in exec.moves:
        if m.desert:
            src = (m.trans.source, m.rnd)
            seen[src] = seen.get(src, 0) + 1
    return [loc for loc, n in seen.items() if n > 1]


# --- copycat and realization ------------------------------------------------------

def concrete_initial(p: Protocol, counts: dict) -> ConcreteConfig:
    """Concrete initial configuration from a state -> multiplicity map."""
    if not counts or all(n == 0 for n in counts.values()):
        raise EmptySupport("at least one process required")
    bad = set(counts) - p.initial_states
    if bad:
        raise NotInitialState(f"not initial: {sorted(bad)}")
    if p.flavor == ROUNDLESS:
        pop = tuple(sorted((q, n) for q, n in counts.items() if n > 0))
    else:
        pop = tuple(sorted(((q, 0), n) for q, n in counts.items() if n > 0))
    return ConcreteConfig(pop, initial_regs(p))


def copycat_extend(p: Protocol, exec: Execution, target) -> Execution:
    """Add one process retracing another's path to ``target``.

    ``exec`` is concrete and ``target`` (a state id, or a location for
    round-based protocols) must be populated in its final configuration.  The
    result replays from the start population plus one process on some initial
    support member, and ends at the final population plus one process on
    ``target`` with identical register values.
    """
    configs = replay_configs(p, exec, CONCRETE)
    if mset_count(configs[-1].pop, target) == 0:
        raise TargetNotPopulated(f"{target} not populated at the end")
    tracked = target
    dup = [False] * len(exec.moves)
    for i in reversed(range(len(exec.moves))):
        m = exec.moves[i]
        if tracked == move_dest(p, m):
            dup[i] = True
            tracked = move_source(p, m)
    new_start = ConcreteConfig(mset_add(exec.start.pop, tracked, +1),
                               exec.start.regs)
    moves: list[Move] = []
    for i, m in enumerate(exec.moves):
        moves.append(m)
        if dup[i]:
            moves.append(m)
    return Execution(new_start, tuple(moves))


def abstract_to_concrete(p: Protocol, exec: Execution) -> Execution:
    """Realize an abstract execution concretely.

    Processes are duplicated (via the copycat construction) only when a
    non-deserting step would otherwise drain a support member that the
    abstract configuration keeps populated; deserting steps move every
    process off the source.
    """
    try:
        replay(p, exec, ABSTRACT)
    except NotEnabled as e:
        raise ReplayFailure(f"abstract execution does not replay: {e}")
    start_elems = sorted(exec.start.pop)
    cur_start = ConcreteConfig(multiset(start_elems), exec.start.regs)
    cur_moves: list[Move] = []
    cur = cur_start
    for m in exec.moves:
        src = move_source(p, m)
        if m.desert:
            for _ in range(mset_count(cur.pop, src)):
                cur_moves.append(m)
                cur = concrete_step(p, cur, m)
        else:
            if mset_count(cur.pop, src) == 1:
                ext = copycat_extend(p, Execution(cur_start, tuple(cur_moves)),
                                     src)
                cur_start = ext.start
                cur_moves = list(ext.moves)
                cur = replay(p, Execution(cur_start, tuple(cur_moves)),
                             CONCRETE)
            cur_moves.append(m)
            cur = concrete_step(p, cur, m)
    return Execution(cur_start, tuple(cur_moves))


# --- reductions and constraint readings ------------------------------------------

def reduce_cover_to_target(p: Protocol, error: int) -> tuple[Protocol, int]:
    """Joker reduction: coverability of ``error`` becomes synchronization.

    Adds a fresh joker symbol, a write-joker self-loop on the error state and
    a read-joker edge from every state to it, so that once the error state is
    reached everybody can be pulled in.
    """
    if p.flavor != ROUNDLESS:
        raise ValueError("needs a roundless protocol")
    joker = "joker"
    while joker in p.symbol_ids:
        joker += "_"
    symbols = p.symbol_names + (joker,)
    jid = len(symbols) - 1
    extra = [Transition(error, Action(WRITE, reg=0, symbol=jid), error)]
    for q in range(p.num_states):
        extra.append(Transition(q, Action(READ, reg=0, symbol=jid), error))
    p2 = Protocol(flavor=ROUNDLESS, state_names=p.state_names,
                  initial_states=p.initial_states,
                  register_count=p.register_count, symbol_names=symbols,
                  transitions=p.transitions + tuple(extra))
    return p2, error


def apc_leaves(psi) -> list:
    """Atomic presence constraints: quantifiers and maximal closed subtrees."""
    out: list = []
    _collect_leaves(psi, _is_apc_leaf, out)
    return out


def clause_holds(dec: ClauseDecomposition, S: frozenset, regs: tuple) -> bool:
    """Whether populated states ``S`` and registers ``regs`` meet a clause."""
    return (dec.q_plus <= S
            and not (dec.q_minus & S)
            and all(regs[j] in ok for j, ok in enumerate(dec.d_ok)))
