"""Reference implementations that the library's faster versions must match."""

import itertools

from regverify.constraints import And, Not, Or, _collect_leaves


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
