"""The bulk matching paths against the per-cell loops they replaced.

The reference functions below are the earlier implementations: a partner
dict built pair by pair through faces, and cone and closure matchings
built chain by chain through the chain dicts.  networkx serves as an
independent acyclicity oracle on the modified Hasse digraph.
"""

import random
from collections import Counter

import numpy as np
import pytest

from partmorse import construction
from partmorse.construction import (
    build_main_matching,
    get_complex,
    split_vertex,
)
from partmorse.morse import (
    DanglingCellError,
    InvalidMatchingError,
    Matching,
    check_equivariance,
    closure_matching,
    cone_matching,
    find_cycle,
    validate_matching,
)
from partmorse.cli import main
from partmorse.ordercomplex import ExplicitComplex, OrderComplex
from partmorse.perm import QuotientComplex
from chain_oracle import chain_positions, is_pair_vertex, monotonicity_witness, relation_chains
from test_morse import divisors_of_six, hexagon


def reference_partner(complex, pairs):
    """The partner dict of a list of pairs, checked pair by pair."""
    partner = {}
    for pair in pairs:
        (d, i), (e, j) = pair
        if e != d + 1:
            raise InvalidMatchingError(f"pair {pair} does not span one dimension")
        for dd, k in ((d, i), (e, j)):
            if not (0 <= dd <= complex.dim and 0 <= k < complex.n_cells(dd)):
                raise InvalidMatchingError(f"dangling cell ({dd}, {k})")
        coeff = dict(complex.faces(e, j)).get(i, 0)
        if abs(coeff) != 1:
            raise InvalidMatchingError(f"cell ({d},{i}) is not a regular face of ({e},{j})")
        for c in pair:
            if c in partner:
                raise InvalidMatchingError(f"cell {c} appears in two pairs")
        partner[(d, i)] = (e, j)
        partner[(e, j)] = (d, i)
    return partner


def reference_verdict(complex, pairs):
    """"dangling" when some pair names a missing cell, else "invalid" when
    the pairs are no matching, else the partner dict."""
    for pair in pairs:
        for d, k in pair:
            if not (0 <= d <= complex.dim and 0 <= k < complex.n_cells(d)):
                return "dangling"
    try:
        return reference_partner(complex, pairs)
    except InvalidMatchingError:
        return "invalid"


def partner_of(matching):
    """The partner dict read off the up and down arrays."""
    partner = {}
    for d, (lo, hi) in matching.pair_arrays().items():
        for i, j in zip(lo.tolist(), hi.tolist()):
            assert matching.down[d + 1][j] == i
            partner[(d, i)] = (d + 1, j)
            partner[(d + 1, j)] = (d, i)
    assert sum((up >= 0).sum() for up in matching.up) == len(partner) // 2
    assert sum((down >= 0).sum() for down in matching.down) == len(partner) // 2
    return partner


def bulk_verdict(complex, pairs):
    """reference_verdict through Matching and validate_matching."""
    try:
        cert = validate_matching(complex, pairs)
    except DanglingCellError:
        return "dangling"
    if not cert.is_matching:
        with pytest.raises(InvalidMatchingError):
            Matching(complex, pairs)
        return "invalid"
    return partner_of(Matching(complex, pairs))


def reference_cone_pairs(complex, vertex_indices, apex_index):
    keep = set(vertex_indices)
    chains = relation_chains(complex.less)
    index = chain_positions(chains)
    pairs = []
    for d in range(complex.dim):
        for i, chain in enumerate(chains[d]):
            if apex_index not in chain and all(v in keep for v in chain):
                pairs.append(((d, i), (d + 1, index[d + 1][chain + (apex_index,)])))
    return pairs


def reference_closure_pairs(complex, descend, vertex_indices=None):
    keep = set(vertex_indices) if vertex_indices is not None else set(range(len(complex.elements)))
    image = {v: descend(v) for v in keep}
    chains = relation_chains(complex.less)
    index = chain_positions(chains)
    pairs = []
    for d in range(complex.dim):
        for i, chain in enumerate(chains[d]):
            if any(v not in keep for v in chain):
                continue
            moving = next((v for v in chain if image[v] != v), None)
            if moving is None or image[moving] in chain:
                continue
            w = image[moving]
            k = 0
            while k < len(chain) and complex.less[chain[k], w]:
                k += 1
            pairs.append(((d, i), (d + 1, index[d + 1][chain[:k] + (w,) + chain[k:]])))
    return pairs


def pair_set(pairs):
    """A {d: (lo, hi)} set of pairs as a set of tuples."""
    return {((d, i), (d + 1, j)) for d, (lo, hi) in pairs.items() for i, j in zip(lo.tolist(), hi.tolist())}


def gcd2_descend(cx):
    gcd2 = {1: 1, 2: 2, 3: 1, 6: 2}
    return lambda v: cx.element_index[gcd2[cx.elements[v]]]


def hexagon_cycle():
    cx = hexagon()
    idx = cx.element_index
    ring = [idx[v] for v in ("a", "ab", "b", "bc", "c", "ca")]
    size = lambda x: len(cx.elements[x])
    return cx, [(cx.locate((u,)), cx.locate(tuple(sorted((u, v), key=size)))) for u, v in zip(ring, ring[1:] + ring[:1])]


def test_bulk_structure_check_agrees_with_reference():
    fixtures = [(get_complex(n), build_main_matching(n).pairs) for n in (3, 4, 5, 6)]
    cx = divisors_of_six()
    fixtures.append((cx, sorted(pair_set(cone_matching(cx, range(4), 3)))))
    fixtures.append((cx, sorted(pair_set(closure_matching(cx, gcd2_descend(cx))))))
    fixtures.append(hexagon_cycle())
    for cx, pairs in fixtures:
        expected = reference_partner(cx, pairs)
        assert partner_of(Matching(cx, pairs)) == expected
        # the same pairs handed over as arrays
        by_dim = {}
        for (d, i), (_, j) in pairs:
            by_dim.setdefault(d, ([], []))
            by_dim[d][0].append(i)
            by_dim[d][1].append(j)
        arrays = {d: (np.array(lo), np.array(hi)) for d, (lo, hi) in by_dim.items()}
        assert partner_of(Matching(cx, arrays)) == expected


def test_nerve_incidence_agrees_with_faces():
    rng = np.random.default_rng(5)
    for n in (4, 5):
        cx = get_complex(n)
        for d in range(1, cx.dim + 1):
            cells = np.repeat(np.arange(cx.n_cells(d)), 3)
            faces = rng.integers(cx.n_cells(d - 1), size=len(cells))
            # the first and the last face of each cell, then a random (d-1)-cell
            faces[::3] = cx.face_table(d, np.arange(cx.n_cells(d)))[:, 0]
            faces[1::3] = cx.face_table(d, np.arange(cx.n_cells(d)))[:, d]
            coeffs = cx.incidence(d, cells, faces)
            assert coeffs.tolist() == [dict(cx.faces(d, i)).get(y, 0) for i, y in zip(cells.tolist(), faces.tolist())]
            assert {0, 1, -1} >= set(coeffs.tolist()) and 0 in coeffs


def corruptions(cx, pairs, rng):
    """Seeded defects of a valid list of pairs, with what each one is."""
    faces = {d: cx.face_table(d, np.arange(cx.n_cells(d))) for d in range(1, cx.dim + 1)}
    for _ in range(4):
        (d, i), (e, j) = pair = rng.choice(pairs)
        rest = [p for p in pairs if p != pair]
        others = [k for k in np.flatnonzero((faces[e] == i).any(axis=1)).tolist() if k != j]
        yield "two pairs", pairs + [((d, i), (e, rng.choice(others)))]
        # a non-face whose own pair is dropped too, so that it is the only defect
        stranger = (e, rng.choice(np.flatnonzero(~(faces[e] == i).any(axis=1)).tolist()))
        yield "non-face", [p for p in rest if stranger not in p] + [((d, i), stranger)]
        yield "out of range", rest + [((d, i), (e, cx.n_cells(e) + rng.randrange(3)))]
        yield "negative index", rest + [((d, -1 - rng.randrange(3)), (e, j))]
        yield "missing dimension", rest + [((cx.dim, 0), (cx.dim + 1, 0))]
        # read as ((d, i), (e, j)) by a conversion that ignored the gap, it
        # would be the pair just dropped
        pair = (d, i), (e, j) = rng.choice([p for p in pairs if p[1][1] < cx.n_cells(p[1][0] + 1)])
        yield "dimension gap", [p for p in pairs if p != pair] + [((d, i), (e + 1, j))]


def test_corrupted_main_matching_gets_the_reference_verdict():
    rng = random.Random(8)
    cx = get_complex(6)
    pairs = build_main_matching(6).pairs
    seen = {}
    for what, bad in corruptions(cx, pairs, rng):
        verdict = reference_verdict(cx, bad)
        assert verdict in ("dangling", "invalid"), what
        assert bulk_verdict(cx, bad) == verdict, what
        seen.setdefault(verdict, set()).add(what)
    assert seen == {
        "invalid": {"two pairs", "non-face", "dimension gap"},
        "dangling": {"out of range", "negative index", "missing dimension"},
    }
    # a dangling cell handed over in array form
    with pytest.raises(DanglingCellError):
        Matching(cx, {0: (np.array([cx.n_cells(0)]), np.array([0]))})


def test_array_pairs_name_their_first_dangling_cell():
    cx = get_complex(6)
    top, ups = cx.dim, cx.n_cells(2)
    one = np.array([0])
    cases = {
        "dangling cell (1, -2)": {0: (np.array([0, 1]), np.array([0, 1])), 1: (np.array([0, -2, -5]), np.array([0, 1, 2]))},
        f"dangling cell (2, {ups})": {1: (np.array([0, 1]), np.array([3, ups, ups + 1]))},
        # a dimension key outside the complex has no cells
        "dangling cell (-1, 0)": {-1: (one, one)},
        f"dangling cell ({top + 1}, 0)": {top: (one, one)},
    }
    for text, pairs in cases.items():
        with pytest.raises(DanglingCellError) as info:
            Matching(cx, pairs)
        assert str(info.value) == text


def test_array_pairs_of_no_integer_type_are_refused():
    cx = get_complex(5)
    empty, one = np.array([]), np.array([0])
    # an empty float array names no cell, but is no index array either
    cases = {
        "cells of dimension -1 given as float64, not as integers": {-1: (empty, empty)},
        "cells of dimension 0 given as float64, not as integers": {0: (np.array([0.0]), one)},
        "cells of dimension 1 given as bool, not as integers": {0: (one, np.array([True]))},
    }
    for text, pairs in cases.items():
        with pytest.raises(InvalidMatchingError) as info:
            Matching(cx, pairs)
        assert type(info.value) is InvalidMatchingError and str(info.value) == text
        cert = validate_matching(cx, pairs)
        assert not cert.is_matching and cert.defect == text


def test_irregular_incidence_gets_the_reference_verdict():
    # an edge glued at both ends to one vertex: coefficient +2 or -2; the
    # circle's edges next to it are regular
    for sign in (1, -1):
        cx = ExplicitComplex(
            [["p", "q"], ["loop", "pq"]],
            [[[(0, sign), (0, sign)], [(0, -1), (1, 1)]]],
        )
        assert cx.incidence(1, np.array([0, 1, 1]), np.array([0, 0, 1])).tolist() == [2 * sign, -1, 1]
        for pairs in ([((0, 0), (1, 0))], [((0, 1), (1, 1)), ((0, 0), (1, 0))]):
            assert reference_verdict(cx, pairs) == "invalid"
            assert bulk_verdict(cx, pairs) == "invalid"
        assert bulk_verdict(cx, [((0, 1), (1, 1))]) == reference_verdict(cx, [((0, 1), (1, 1))])


def stage_matchings(n):
    """The closure and cone calls of the zero-fiber build at size n."""
    cx = get_complex(n)
    split = split_vertex(n)
    ground = [v for v, p in enumerate(cx.elements) if not is_pair_vertex(p)]

    def descend(v):
        return cx.element_index[cx.elements[v].meet(split)]

    fixed = [v for v in ground if descend(v) == v]
    return cx, (descend, ground), (fixed, cx.element_index[split])


def test_monotonicity_witness_matches_the_matrix_reference():
    rng = np.random.default_rng(11)
    raised = 0
    for n in (4, 5, 6):
        cx, (descend, ground), _ = stage_matchings(n)
        image = np.arange(len(cx.less))
        image[ground] = [descend(v) for v in ground]
        moving = [v for v in ground if image[v] != v]
        fixed = [v for v in ground if image[v] == v]
        for _ in range(30):
            # fix one to three moving vertices, or send them to another fixed
            # point below: still descending and idempotent, not always monotone
            bent = image.copy()
            for v in rng.choice(moving, rng.integers(1, 4), replace=False).tolist():
                below = [w for w in fixed if cx.less[w, v]]
                bent[v] = v if not below or rng.random() < 0.5 else rng.choice(below)
            witness = monotonicity_witness(cx.less, ground, bent)
            if witness is None:
                closure_matching(cx, bent.__getitem__, ground)
            else:
                raised += 1
                with pytest.raises(ValueError, match=f"^operator is not monotone on {witness[0]} <= {witness[1]}$"):
                    closure_matching(cx, bent.__getitem__, ground)
    assert 10 <= raised < 90


def test_cone_and_closure_agree_with_chain_by_chain_reference():
    for n in (3, 4, 5, 6):
        cx, closure_args, cone_args = stage_matchings(n)
        closure = closure_matching(cx, *closure_args)
        assert pair_set(closure) == set(reference_closure_pairs(cx, *closure_args))
        assert sum(len(lo) for lo, _ in closure.values()) == len(pair_set(closure))
        assert pair_set(cone_matching(cx, *cone_args)) == set(reference_cone_pairs(cx, *cone_args))
    cx = divisors_of_six()
    assert pair_set(closure_matching(cx, gcd2_descend(cx))) == set(reference_closure_pairs(cx, gcd2_descend(cx)))
    for apex, verts in ((3, range(4)), (1, [0, 1]), (2, [0, 2]), (3, [1, 2, 3])):
        assert pair_set(cone_matching(cx, verts, apex)) == set(reference_cone_pairs(cx, verts, apex))


def test_each_face_table_is_built_once_per_complex(monkeypatch, capsys):
    # rebuild n = 6 from scratch; the cached objects come back afterwards
    for cache in ("_complexes", "_actions", "_matchings"):
        monkeypatch.setattr(construction, cache, {})
    builds, complexes = Counter(), []
    for cls in (OrderComplex, QuotientComplex):

        def counted(self, d, cells, real=cls.face_table):
            if np.array_equal(cells, np.arange(self.n_cells(d))):
                builds[id(self), d] += 1
                complexes.append(self)  # keeps the id unique
            return real(self, d, cells)

        monkeypatch.setattr(cls, "face_table", counted)
    assert check_equivariance(build_main_matching(6), construction.get_action(6))
    # the main matching reads one nerve, of its own size
    assert sorted(construction._complexes) == [6]
    assert main(["verify", "--n", "6"]) == 0
    assert builds and max(builds.values()) == 1


def hasse_digraph(matching):
    """The modified Hasse digraph: an edge from each cell to each of its
    faces, reversed for the matched pairs."""
    nx = pytest.importorskip("networkx")
    cx = matching.complex
    graph = nx.DiGraph()
    graph.add_nodes_from((d, i) for d in range(cx.dim + 1) for i in range(cx.n_cells(d)))
    for d in range(1, cx.dim + 1):
        for j in range(cx.n_cells(d)):
            for y, _ in cx.faces(d, j):
                if matching.up[d - 1][y] == j:
                    graph.add_edge((d - 1, y), (d, j))
                else:
                    graph.add_edge((d, j), (d - 1, y))
    return graph


def assert_closed_alternating_path(matching, witness):
    """Each step down is a face that is not the cell's partner, and each
    step up is a matched pair; the path ends where it starts."""
    cx = matching.complex
    assert witness[0] == witness[-1] and len(witness) >= 5
    top = witness[0][0]
    for k, (d, i) in enumerate(witness):
        assert d == (top if k % 2 == 0 else top - 1)
    for (d, u), (_, y), (_, v) in zip(witness[0::2], witness[1::2], witness[2::2]):
        assert dict(cx.faces(d, u)).get(y, 0) != 0
        assert matching.down[d][u] != y
        assert matching.up[d - 1][y] == v


def repairings(matching, rng, count):
    """Seeded re-pairings that stay matchings, one to three steps each;
    the pairs that held a re-paired cell are dropped.  A step either
    moves the lower cell of some pair onto another of its cofaces, or
    takes faces U0, U1, U2 of some cell two dimensions up, with xij the
    face shared by Ui and Uj, and pairs x20-U0, x01-U1, x12-U2, which
    closes the cycle U0 > x01 < U1 > x12 < U2 > x20 < U0."""
    cx = matching.complex
    faces = {d: cx.face_table(d, np.arange(cx.n_cells(d))) for d in range(1, cx.dim + 1)}
    for _ in range(count):
        moved = dict(matching.pairs)
        for _ in range(rng.randrange(1, 4)):
            if rng.random() < 0.25:
                d = rng.randrange(cx.dim - 1)
                top = faces[d + 2][rng.randrange(cx.n_cells(d + 2))]
                k = sorted(rng.sample(range(d + 3), 3))
                up = [int(top[i]) for i in k]
                shared = [int(faces[d + 1][up[i]][k[j] - (k[j] > k[i])]) for i, j in ((2, 0), (0, 1), (1, 2))]
                new = {(d, x): (d + 1, u) for x, u in zip(shared, up)}
            else:
                (d, a), (e, j) = rng.choice(sorted(moved.items()))
                cofaces = [c for c in np.flatnonzero((faces[e] == a).any(axis=1)).tolist() if c != j]
                new = {(d, a): (e, rng.choice(cofaces))}
            held = set(new) | set(new.values())
            moved = {lo: hi for lo, hi in moved.items() if lo not in held and hi not in held} | new
        yield Matching(cx, sorted(moved.items()))


def test_find_cycle_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    verdicts = []
    cases = [build_main_matching(n) for n in (3, 4, 5, 6)]
    cases += list(repairings(build_main_matching(5), random.Random(5), 40))
    cases += list(repairings(build_main_matching(6), random.Random(6), 12))
    cx, cyclic = hexagon_cycle()
    cases.append(Matching(cx, cyclic))
    for matching in cases:
        witness = find_cycle(matching)
        assert (witness is None) == nx.is_directed_acyclic_graph(hasse_digraph(matching))
        if witness is not None:
            assert_closed_alternating_path(matching, witness)
        verdicts.append(witness is None)
    assert all(verdicts[:4]) and not verdicts[-1]
    # the re-pairings are sometimes cyclic and sometimes not
    assert True in verdicts[4:-1] and False in verdicts[4:-1]
