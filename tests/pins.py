"""Seed pins of rb-search and the oracle on generated round-based
questions, and of every route on the benchmark's corpora.

Each step generates its seeds' protocols and constraints, solves them and
asserts the tallies: answers, routes, ticks, nodes and configurations
discovered.  A change in what a search tries or memoizes moves these
numbers.  The ``corpus`` step pins one digest of every result, witnesses
included, on the three seed-101 benchmark corpora.  Run one step with its
hash seed fixed, from the repository root:

    PYTHONHASHSEED=0 PYTHONPATH=src:tests python tests/pins.py rb-search
"""

import collections
import hashlib
import random
import sys
from pathlib import Path

from generators import random_rb_constraint, random_rb_protocol
from regverify.constraints import eval_roundbased
from regverify.errors import CapExceeded
from regverify.oracle import oracle_prp
from regverify.roundbased import _round_bound, solve_prp_roundbased
from regverify.semantics import ABSTRACT, replay, write_trace


def rb_search() -> None:
    """Seeds 200000-202999 at budget 250 000: only 201795 and 202332 are
    unknown; route counts, ticks and nodes pinned."""
    unknown, positive, routes = [], 0, collections.Counter()
    ticks = nodes = 0
    for seed in range(200_000, 203_000):
        rng = random.Random(seed)
        p = random_rb_protocol(rng)
        psi = random_rb_constraint(rng, p)
        v = solve_prp_roundbased(p, psi, budget=250_000)
        routes[v.stats["route"]] += 1
        ticks += v.stats["ticks"]
        nodes += v.stats["nodes"]
        # a bounded protocol never reaches the footprint search, and
        # an unbounded one takes the window only at round cap 1
        if _round_bound(p) is not None:
            assert v.stats["route"] in ("round-window", "refuted"), seed
        else:
            assert v.stats["route"] != "round-window", seed
        if v.answer == "unknown":
            unknown.append(seed)
        elif v.answer == "positive":
            assert eval_roundbased(p, replay(p, v.witness, ABSTRACT),
                                   psi), seed
            positive += 1
    print(positive, "positive witnesses replay; unknown:", unknown)
    print("routes:", dict(sorted(routes.items())), "ticks:", ticks,
          "nodes:", nodes)
    assert unknown == [201795, 202332], unknown
    assert routes == {"capped-window": 839, "round-window": 1665,
                      "refuted": 201, "footprints": 295}, routes
    # all the work of the search: a change in what it tries shows here
    assert ticks == 647_847, ticks
    # the visited nodes: a change in what the search memoizes shows here
    assert nodes == 7_611, nodes


def rb_search_visibility() -> None:
    """Seeds 400-2399 at visibility up to 3 and budget 30 000 (depth-2 and
    depth-3 reads); route counts, ticks and nodes pinned."""
    routes, visibility = collections.Counter(), collections.Counter()
    ticks = nodes = 0
    for seed in range(400, 2400):
        rng = random.Random(seed)
        p = random_rb_protocol(rng, visibility_max=3, max_trans=8)
        psi = random_rb_constraint(rng, p)
        v = solve_prp_roundbased(p, psi, budget=30_000)
        visibility[p.visibility] += 1
        routes[v.stats["route"], v.answer] += 1
        ticks += v.stats["ticks"]
        nodes += v.stats["nodes"]
        if v.answer == "positive":
            assert eval_roundbased(p, replay(p, v.witness, ABSTRACT),
                                   psi), seed
    print("visibility:", dict(sorted(visibility.items())))
    print("routes:", dict(sorted(routes.items())), "ticks:", ticks,
          "nodes:", nodes)
    assert visibility == {0: 471, 1: 500, 2: 499, 3: 530}, visibility
    assert routes == {
        ("capped-window", "positive"): 643,
        ("round-window", "positive"): 476,
        ("round-window", "negative"): 530,
        ("refuted", "negative"): 135,
        ("footprints", "positive"): 105,
        ("footprints", "negative"): 109,
        ("footprints", "unknown"): 2}, routes
    assert ticks == 121_363, ticks
    assert nodes == 9_659, nodes


def oracle() -> None:
    """Seeds 200000-202999 at space cap 40 000: 1 823 positive, 1 164
    negative, 13 refused."""
    # the 37 seeds refused while a constraint that compiles to false
    # was still searched; each one decided now must be a negative
    # for which rb-search finds no witness either
    refused_before = {
        200030, 200038, 200063, 200071, 200136, 200175, 200201, 200216,
        200336, 200362, 200455, 200499, 200535, 200709, 200771, 200831,
        200931, 200969, 201113, 201114, 201154, 201375, 201456, 201518,
        201926, 201983, 202018, 202196, 202331, 202560, 202597, 202696,
        202709, 202903, 202941, 202965, 202985}
    answers, members, newly = collections.Counter(), 0, []
    for seed in range(200_000, 203_000):
        rng = random.Random(seed)
        p = random_rb_protocol(rng)
        psi = random_rb_constraint(rng, p)
        try:
            v = oracle_prp(p, psi, space_cap=40_000)
        except CapExceeded:
            answers["refused"] += 1
            continue
        answers[v.answer] += 1
        members += v.stats["members"]
        if seed in refused_before:
            newly.append(seed)
            assert v.answer == "negative", seed
            got = solve_prp_roundbased(p, psi, budget=250_000)
            assert got.answer != "positive", seed
    print(dict(answers), members, "configurations discovered;",
          len(newly), "seeds refused before decided:", newly)
    # a positive counts the configurations discovered up to its hit,
    # so the total pins the discovery order of the round window
    assert answers == {"positive": 1823, "negative": 1164,
                       "refused": 13}, answers
    assert members == 185_888, members
    assert len(newly) == 24, newly


# the digest of every query's result on the three seed-101 bench corpora
CORPUS_DIGEST = \
    "ee4bfc70fb7a96da402d2d0f6536f15d9f5b0c61ea1094359da83fefd92f1180"


def corpus() -> None:
    """Every query of the seed-101 bench corpora of a 30 s run, asked as
    the benchmark asks it: one SHA-256 over each query's question, route,
    answer, sorted stats and witness trace, in the corpora's query order."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import corpus as bench_corpus
    from regverify.constraints import (parse_round_constraint,
                                       parse_roundless_constraint)
    from regverify.model import ROUNDLESS, parse_protocol
    from tracing import NullTracer
    from worker import decide

    h = hashlib.sha256()
    answers = collections.Counter()
    for w in bench_corpus.WORKLOADS:
        built = bench_corpus.build(w, 101, 30, NullTracer())
        for qi, route in built.queries():
            q = built.questions[qi]
            p = parse_protocol(q.protocol)
            parse = parse_roundless_constraint if p.flavor == ROUNDLESS \
                else parse_round_constraint
            phi = parse(q.constraint, p)
            try:
                v = decide(route, p, phi, q)
            except CapExceeded:
                answer, result = "refused", ()
            else:
                answer = v.answer
                result = (sorted(v.stats.items()), "" if v.witness is None
                          else write_trace(p, v.witness, ABSTRACT))
            answers[w, answer] += 1
            h.update(repr((q.protocol, q.constraint, route, answer,
                           result)).encode())
    digest = h.hexdigest()
    print(dict(sorted(answers.items())), "digest:", digest)
    assert digest == CORPUS_DIGEST, digest


STEPS = {"rb-search": rb_search, "rb-search-visibility": rb_search_visibility,
         "oracle": oracle, "corpus": corpus}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in STEPS:
        sys.exit(f"usage: python tests/pins.py {{{','.join(STEPS)}}}")
    STEPS[sys.argv[1]]()
