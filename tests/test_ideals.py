"""Ideal-tuple layer tests.

The r=1 and r=2 cases are worked out by hand in this file, point class by
point class, before the brute-force sweeps lean on verify_exactness; the
staged supports are also recomputed against the groupoid layer formula.
"""

import random

import pytest

from kgraphlab.dynsys import (
    free_monoid_system,
    grid_system,
    identity_system,
    product_system,
)
from kgraphlab.errors import ConfigError
from kgraphlab.groupoid import build_semidirect, exit_time_subsets, invariant_layers
from kgraphlab.ideals import (
    IdealTuple,
    all_ideal_tuples,
    build_sequence,
    from_mgds,
    verify_exactness,
)
from kgraphlab.shapes import Shape


P4 = frozenset({1, 2, 3, 4})


def supports(tup):
    return tuple(s.support for s in build_sequence(tup))


# -- tuple basics ------------------------------------------------------------------


def test_part_must_be_subset():
    with pytest.raises(ConfigError):
        IdealTuple({1, 2}, [{1, 3}])
    with pytest.raises(ConfigError):
        IdealTuple(P4, [{1}]).part(2)


# -- staged sequences ---------------------------------------------------------------


def test_rank1_stages():
    t = IdealTuple(P4, [{1, 2}])
    assert supports(t) == ({1, 2}, P4, {3, 4})
    assert len(build_sequence(t)) == t.rank + 2


def test_rank2_worked_example():
    t = IdealTuple(P4, [{1, 2}, {2, 3}])
    assert supports(t) == ({2}, {2, 3}, {3, 4}, {4})


def test_rank2_full_parts():
    t = IdealTuple(P4, [P4, P4])
    assert supports(t) == (P4, P4, frozenset(), frozenset())


def test_rank1_exactness_by_hand():
    # with a single part J the three stages read (J, P, P-J); every point of
    # J sits in stages 0 and 1, every other point in stages 1 and 2, so each
    # check below is the full case split
    for J in [set(), {1}, {1, 3}, set(P4)]:
        t = IdealTuple(P4, [J])
        y0, y1, y2 = supports(t)
        assert y0 == J and y1 == P4 and y2 == P4 - J
        assert y0 <= y1
        assert y0 & y1 == y1 - y2  # both sides are J
        assert y2 <= y1
        for x in P4:
            assert (x in y0) - (x in y1) + (x in y2) == 0
        assert verify_exactness(build_sequence(t)).ok


def test_rank2_exactness_by_hand():
    # four point classes: in both parts, only in part 1, only in part 2,
    # in neither; stage membership per class is (0110 -> stages 0,1), etc.
    t = IdealTuple(P4, [{1, 2}, {2, 3}])
    y = supports(t)
    by_class = {
        2: (True, True, False, False),    # in both parts
        1: (False, False, False, False),  # only part 1: misses the early meets
                                          # and is subtracted from every later stage
        3: (False, True, True, False),    # only part 2
        4: (False, False, True, True),    # in neither
    }
    for x, member in by_class.items():
        assert tuple(x in s for s in y) == member
    report = verify_exactness(build_sequence(t))
    assert report.ok
    assert y[0] & y[1] == y[1] - y[2] == {2}


def test_exactness_sweep_small_bases():
    # the desk-scale soundness proof: every tuple over every base of size
    # at most 4 and rank at most 3 passes every check
    for n in range(5):
        for r in (1, 2, 3):
            for tup in all_ideal_tuples(range(n), r):
                report = verify_exactness(build_sequence(tup))
                assert report.ok, (n, r, tup.parts, report.failing())


def test_monotone_under_part_growth():
    # growing one part can only grow the kernel stage and shrink the
    # quotient stage
    base = range(3)
    for tup in all_ideal_tuples(base, 2):
        for j in (1, 2):
            for x in tup.points - tup.part(j):
                bigger = IdealTuple(tup.points,
                                    [p | {x} if i == j else p
                                     for i, p in enumerate(tup.parts, start=1)])
                assert supports(tup)[0] <= supports(bigger)[0]
                assert supports(bigger)[-1] <= supports(tup)[-1]


def test_verify_rejects_short_input():
    with pytest.raises(ConfigError):
        verify_exactness([])


def test_diagnostics_name_the_stage():
    # hand-build a defective sequence: stage 0 leaks a point past stage 1
    t = IdealTuple(P4, [{1, 2}])
    stages = list(build_sequence(t))
    broken = stages[0].__class__(frozenset({1, 2, 4}))
    report = verify_exactness([broken] + stages[1:])
    assert not report.ok
    names = {c.name for c in report.failing()}
    assert "first-stage-contained" in names or "image-is-kernel-1" in names
    witness = report.failing()[0].witness
    assert witness is not None


# -- tuples from dynamical systems ----------------------------------------------------


def test_grid_system_tuple_is_trivial():
    sys = grid_system(2, 4)
    tup = from_mgds(sys)
    assert all(part == tup.points for part in tup.parts)
    y = supports(tup)
    assert y[0] == y[1] == tup.points
    assert y[2] == y[3] == frozenset()


def test_free_monoid_tuple_is_trivial():
    sys = free_monoid_system("ab", 3)
    tup = from_mgds(sys)
    assert all(part == tup.points for part in tup.parts)


CYCLE_CHAIN = (["c0", "c1", 0, 1], {"c0": "c1", "c1": "c0", 1: 0})


def test_mixed_cycle_chain_tuple():
    sys = product_system("mix", [CYCLE_CHAIN, CYCLE_CHAIN])
    tup = from_mgds(sys)
    # chain points exit, cycle points never do: 2 of 4 per coordinate
    assert len(tup.points) == 16
    assert len(tup.part(1)) == 8
    assert len(tup.part(2)) == 8
    y = supports(tup)
    assert tuple(len(s) for s in y) == (4, 8, 8, 4)
    assert verify_exactness(build_sequence(tup)).ok


def test_agreement_with_groupoid_layers_identity():
    sys = identity_system(range(4), rank=2)
    G = build_semidirect(sys, Shape(2, 2), force=True)
    pts = list(sys.carrier)
    subsets = [frozenset(s) for s in all_subsets(pts)]
    for X1 in subsets:
        for X2 in subsets:
            tup = IdealTuple(frozenset(pts), [X1, X2])
            want = [s.support for s in build_sequence(tup)]
            got = invariant_layers(G, [X1, X2])
            assert [frozenset(g) for g in got] == want


def all_subsets(points):
    out = [frozenset()]
    for p in points:
        out += [s | {p} for s in out]
    return out


def random_component(rng):
    """A small one-map component: a chain, optionally feeding a cycle."""
    n_chain = rng.randint(1, 3)
    cyc = rng.randint(0, 2)
    pts = [f"s{i}" for i in range(n_chain)] + [f"c{i}" for i in range(cyc)]
    table = {f"s{i}": f"s{i+1}" for i in range(n_chain - 1)}
    if cyc:
        table[f"s{n_chain-1}"] = "c0"
        for i in range(cyc):
            table[f"c{i}"] = f"c{(i+1) % cyc}"
    return pts, table


def test_agreement_with_groupoid_layers_random():
    rng = random.Random(20260816)
    for trial in range(12):
        rank = rng.choice([1, 2, 2, 3])
        comps = [random_component(rng) for _ in range(rank)]
        sys = product_system(f"rand{trial}", comps)
        tup = from_mgds(sys)
        want = [s.support for s in build_sequence(tup)]
        G = build_semidirect(sys, force=True)
        got = invariant_layers(G, exit_time_subsets(sys))
        assert [frozenset(g) for g in got] == want, (trial, rank)
        assert verify_exactness(build_sequence(tup)).ok
