"""Reference implementations that the library's faster versions must match."""

import itertools

from regverify.constraints import (And, Exists, Not, Or, _collect_leaves,
                                   closed_atoms_of, forcing_literal_sets,
                                   ground, substitute_atoms)
from regverify.errors import CapExceeded
from regverify.oracle import ReachSet


def eval_with_assignment(node, assign: dict) -> bool:
    """Truth of a formula once every leaf under And/Or/Not has a value."""
    if node in assign:  # leaves may themselves be compound closed subtrees
        return assign[node]
    if isinstance(node, And):
        return all(eval_with_assignment(x, assign) for x in node.children)
    if isinstance(node, Or):
        return any(eval_with_assignment(x, assign) for x in node.children)
    if isinstance(node, Not):
        return not eval_with_assignment(node.child, assign)
    raise KeyError(f"unassigned leaf {node!r}")


def truth_table_prime_implicants(node, is_leaf) -> list[dict]:
    """``constraints.prime_implicants`` by trying every partial assignment.

    Candidates are produced by ascending size, ties in leaf declaration
    order, then True before False; supersets of an already-found implicant
    are skipped.  Exponential in the number of leaves.
    """
    leaves: list = []
    _collect_leaves(node, is_leaf, leaves)
    n = len(leaves)
    found: list[dict] = []
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            chosen = [leaves[i] for i in combo]
            for bits in itertools.product((True, False), repeat=r):
                partial = dict(zip(chosen, bits))
                if any(all(l in partial and partial[l] == v
                           for l, v in f.items()) for f in found):
                    continue
                rest = [l for l in leaves if l not in partial]
                if all(eval_with_assignment(node, {**partial,
                                                   **dict(zip(rest, bits2))})
                       for bits2 in itertools.product((True, False),
                                                      repeat=len(rest))):
                    found.append(partial)
    return found


def full_quantified_entries(apc, value: bool) -> list[tuple]:
    """``constraints._quantified_entries`` by trying every truth assignment
    of the constant-round atoms, in order, True first.

    Guesses whose residual no literal set can force come out with the role
    "dead"; the library drops them.  Exponential in the number of atoms.
    """
    if isinstance(apc, Exists):
        role = "E" if value else "U"
    else:
        role = "U" if value else "E"
    body = apc.prop if value else Not(apc.prop)
    catoms = closed_atoms_of(body)
    out = []
    for bits in itertools.product((True, False), repeat=len(catoms)):
        assign = dict(zip(catoms, bits))
        lits = frozenset(ground(a, v, None)
                         for a, v in assign.items())
        residual = substitute_atoms(body, assign)
        forcing = forcing_literal_sets(residual)
        if not forcing:
            out.append((lits, "dead", None))
        elif forcing == [{}]:
            out.append((lits, "none", None))
        else:
            out.append((lits, role, residual))
    return out


def bfs(starts, successors, space_cap: float = float("inf"),
        max_depth: int | None = None) -> ReachSet:
    """``oracle.bfs`` over explicit configurations and a successor function.

    ``successors(c)`` yields ``(move, successor)`` pairs.  Each level's
    configurations are expanded in discovery order, each by its successors
    in the order given; configurations at depth ``max_depth`` are not
    expanded, and discovering more than ``space_cap``, starts included,
    raises ``CapExceeded``.
    """
    rs = ReachSet(lambda c: c)
    links = rs.links

    def discover(pairs) -> list:
        """The configurations of ``(c, link)`` pairs first seen, in order."""
        new = []
        for c, link in pairs:
            if c not in links:
                if len(links) >= space_cap:
                    raise CapExceeded(
                        f"reach set exceeds {space_cap} configurations")
                links[c] = link
                new.append(c)
        return new

    level = discover((c, None) for c in starts)
    depth = 0
    while level and depth != max_depth:
        depth += 1
        level = discover((succ, (c, move)) for c in level
                         for move, succ in successors(c))
    return rs
