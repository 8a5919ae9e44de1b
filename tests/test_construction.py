import hashlib
import math
import random
from itertools import permutations

import numpy as np
import pytest

from partmorse.construction import (
    _anchored_mask,
    _pair_mask,
    anchored_flags,
    build_main_matching,
    block_size_label,
    fiber_zero_matching,
    get_action,
    get_complex,
    lift_cells,
    matching_report,
    orbit_vertex_label,
    pair_vertex,
    patchwork_keys,
    quotient_critical_cells,
    split_vertex,
)
from partmorse.morse import validate_matching
from partmorse.ordercomplex import Simplex, parse_simplex
from partmorse.perm import Perm, PermGroup, act
from partmorse.setpart import Partition, parse_partition
from chain_oracle import fiber_of, is_anchored, is_pair_vertex, lift_chain, lift_partition


def test_split_vertex():
    assert split_vertex(4) == parse_partition("1|2,3,4")
    assert split_vertex(3) == parse_partition("1|2,3")


def test_pair_vertices():
    assert pair_vertex(4, 3) == parse_partition("1,3|2|4")
    assert [pair_vertex(4, k) for k in (2, 3, 4)] == [
        parse_partition("1,2|3|4"),
        parse_partition("1,3|2|4"),
        parse_partition("1,4|2|3"),
    ]
    with pytest.raises(ValueError):
        pair_vertex(4, 1)
    with pytest.raises(ValueError):
        pair_vertex(4, 5)


def test_pair_vertex_predicate():
    vertices = [parse_partition("1,3|2|4"), parse_partition("1|2,3|4"), parse_partition("1,3|2,4"), split_vertex(4)]
    for p, want in zip(vertices, [True, False, False, False]):
        assert is_pair_vertex(p) is want
        assert _pair_mask(np.array([p.rgs])).tolist() == [want]


def test_anchored_predicate():
    vertices = [parse_partition("1,2,4|3|5"), split_vertex(5), parse_partition("1,2|3,4|5")]
    for p, want in zip(vertices, [True, False, False]):
        assert is_anchored(p) is want
        assert _anchored_mask(np.array([p.rgs])).tolist() == [want]


def test_anchored_vertices_count():
    # anchored proper partitions: block of 1 has size 2..n-1, chosen freely
    for n in range(3, 7):
        expected = sum(math.comb(n - 1, k) for k in range(1, n - 1))
        cx = get_complex(n)
        assert sum(map(is_anchored, cx.elements)) == expected
        assert _anchored_mask(cx.labels).tolist() == [is_anchored(p) for p in cx.elements]
        assert _pair_mask(cx.labels).tolist() == [is_pair_vertex(p) for p in cx.elements]


def permutation_flags(n):
    """The anchored flags built from scratch: the block of 1 takes the
    elements of each ordered choice of n-2 of 2..n, one per step."""
    for added in permutations(range(2, n + 1), n - 2):
        block = [1]
        chain = []
        for e in added:
            block.append(e)
            chain.append(Partition(n, [block[:]] + [[j] for j in range(2, n + 1) if j not in block]))
        yield Simplex(tuple(chain))


def test_anchored_flags_shape():
    for n in range(3, 7):
        cx = get_complex(n)
        flags = anchored_flags(n)
        assert len(flags) == math.factorial(n - 1)
        for s in [cx.simplex(cx.dim, i) for i in flags.tolist()]:
            assert s.dim == n - 3
            assert all(is_anchored(v) for v in s)
            assert is_pair_vertex(s.vertices[0])
            sizes = [len(v.block_containing(1)) for v in s]
            assert sizes == list(range(2, n))
    assert len(set(anchored_flags(5).tolist())) == 24
    with pytest.raises(ValueError):
        anchored_flags(2)


def test_anchored_flags_are_the_permutation_flags():
    for n in range(3, 8):
        cx = get_complex(n)
        assert anchored_flags(n).tolist() == sorted(cx.locate(s)[1] for s in permutation_flags(n))


def test_fiber_of():
    assert fiber_of(Simplex((split_vertex(4),))) == 0
    v = pair_vertex(4, 2)
    assert fiber_of(Simplex((v,))) == v
    s = parse_simplex("1,2|3|4 < 1,2|3,4")
    assert fiber_of(s) == v
    assert fiber_of(parse_simplex("1|2,3|4 < 1|2,3,4")) == 0


def test_fiber_vertex_is_unique_exhaustive():
    # atoms of the refinement order: no chain can hold two of them
    for n in (4, 5):
        cx = get_complex(n)
        for d in range(cx.dim + 1):
            for i in range(cx.n_cells(d)):
                hits = [v for v in cx.simplex(d, i) if is_pair_vertex(v)]
                assert len(hits) <= 1
                if hits:
                    assert cx.simplex(d, i).vertices[0] == hits[0]


def test_cell_fiber_key_matches_fiber_of():
    for n in (3, 4, 5, 6):
        cx = get_complex(n)
        # the fiber key of a chain: k when {1,k} leads it, else 0
        key = [np.where(layer >= 2, layer, 0) for layer in patchwork_keys(cx)]
        for d in range(cx.dim + 1):
            for i in range(cx.n_cells(d)):
                k = int(key[d][i])
                assert fiber_of(cx.simplex(d, i)) == (pair_vertex(n, k) if k else 0)


def test_lift_partition_round_trip():
    p = parse_partition("1,3|2|4")
    q = lift_partition(p)
    assert q == parse_partition("1,3,5|2|4")


def test_lift_chain_shape():
    s = parse_simplex("1,2|3|4 < 1,2,3|4")
    t = lift_chain(s)
    assert t.vertices[0] == pair_vertex(5, 5)
    assert t.vertices[1] == parse_partition("1,2,5|3|4")
    assert t.vertices[2] == parse_partition("1,2,3,5|4")


def test_lift_is_poset_isomorphism_exhaustive():
    for n in (4, 5):
        cx = get_complex(n - 1)
        parts = list(cx.elements)
        lifted = [lift_partition(p) for p in parts]
        assert len(set(lifted)) == len(lifted)
        for a in parts:
            for b in parts:
                la, lb = lift_partition(a), lift_partition(b)
                assert a.refines(b) == la.refines(lb)


def test_lift_intertwines_restricted_action_exhaustive():
    for n in (4, 5):
        stab = [g for g in PermGroup.point_stabilizer(n).elements if g(n) == n]
        parts = get_complex(n - 1).elements
        for g in stab:
            r = Perm(g.images[: n - 1])
            for p in parts:
                assert act(g, lift_partition(p)) == lift_partition(act(r, p))


def test_array_lift_matches_lift_chain():
    for n in (4, 5, 6):
        prev_cx, cx = get_complex(n - 1), get_complex(n)
        images = lift_cells(prev_cx, cx)
        for d in range(prev_cx.dim + 1):
            expected = [cx.locate(lift_chain(prev_cx.simplex(d, i))) for i in range(prev_cx.n_cells(d))]
            assert [(d + 1, j) for j in images[d].tolist()] == expected


def test_fiber_zero_matching_single_critical_vertex():
    for n in (3, 4, 5):
        cx = get_complex(n)
        m = fiber_zero_matching(n)
        cert = validate_matching(cx, m, get_action(n))
        assert cert.is_matching and cert.is_acyclic
        assert cert.equivariant_under is not None
        # within the zero fiber the split vertex is the only critical cell
        crit_zero = [
            (d, i)
            for d, layer in enumerate(m.critical_cells())
            for i in layer
            if fiber_of(cx.simplex(d, i)) == 0
        ]
        assert crit_zero == [cx.locate(Simplex((split_vertex(n),)))]
        # only chains avoiding the pair vertices are touched
        for (d, a), _ in m.pairs:
            assert fiber_of(cx.simplex(d, a)) == 0


def test_main_matching_is_cached():
    assert build_main_matching(4) is build_main_matching(4)
    assert get_complex(4) is get_complex(4)


def test_main_matching_critical_set():
    for n in (3, 4, 5):
        cx = get_complex(n)
        m = build_main_matching(n)
        crit = m.critical_cells()
        expected_top = {(cx.dim, i) for i in anchored_flags(n).tolist()}
        got = {(d, i) for d in range(cx.dim + 1) for i in crit[d]}
        assert got == expected_top | {cx.locate(Simplex((split_vertex(n),)))}


# sha256 of build_main_matching(n).dump(); n = 3 has no pairs, so its dump is empty
MAIN_MATCHING_SHA256 = {
    3: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    4: "18518341eae96df6290efa97ffe54d397e583830565a4b4fb604d5112048602e",
    5: "bdad953ec844b6ac457fc42e53df31fd1fbf446d055257c5c6039e92fcb6e106",
    6: "79d96a921acf6a22a678f4c855ca49b6b79ce5f9f737dbd979b6254e8a56fed5",
    7: "b6428cc330461c388fb713dd66dd7d8b28018abdc4d9340059d933d9d534d3bb",
}


def test_main_matching_dump_is_pinned():
    for n, digest in MAIN_MATCHING_SHA256.items():
        assert hashlib.sha256(build_main_matching(n).dump().encode()).hexdigest() == digest


def test_quotient_critical_cells_full_group():
    qm, qc = quotient_critical_cells(4, PermGroup.point_stabilizer(4))
    assert qm.critical_counts() == [1, 1]
    labels = [orbit_vertex_label(qc, i) for i in qm.critical_cells()[0]]
    assert labels == ["1⊕3"]
    top = qm.critical_cells()[1][0]
    vertex_orbits = [j for j, _ in qc.faces(1, top)]
    assert sorted(orbit_vertex_label(qc, j) for j in vertex_orbits) == ["2⊕1+1", "3⊕1"]


def test_quotient_critical_cells_requires_fixing_one():
    with pytest.raises(ValueError):
        quotient_critical_cells(4, PermGroup.symmetric(4))


def test_orbit_vertex_label_requires_full_stabilizer():
    _, qc = quotient_critical_cells(4, PermGroup.from_cycle_strings(4, ["(2 3)"]))
    with pytest.raises(ValueError):
        orbit_vertex_label(qc, 0)


def test_block_size_label():
    assert block_size_label(parse_partition("1|2,3,4")) == "1⊕3"
    assert block_size_label(parse_partition("1,2|3|4")) == "2⊕1+1"
    assert block_size_label(parse_partition("1,2,3|4,5")) == "3⊕2"
    assert block_size_label(parse_partition("1|2,3|4,5|6")) == "1⊕2+2+1"


def test_matching_report_shape():
    report = matching_report(4)
    assert report["n"] == 4
    assert report["criticalCounts"] == [1, 6]
    assert report["cardinalityCn"] == 6
    certs = report["certificates"]
    assert certs["acyclic"] is True
    assert certs["equivariant"] is True
    assert certs["criticalSetMatches"] is True
    orbit = report["orbitData"]
    assert orbit["orbits"] == 1
    assert orbit["stabilizerOrder"] == 1
