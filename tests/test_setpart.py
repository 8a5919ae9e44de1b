import numpy as np
import pytest

from partmorse.setpart import (
    Partition,
    PartitionParseError,
    enumerate_proper,
    format_partition,
    format_rgs,
    parse_partition,
    proper_rgs,
    rgs_table,
)
from chain_oracle import all_partitions, meet, recursive_rgs

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877}


def test_canonical_form():
    p = Partition(5, [(3, 1), (5,), (4, 2)])
    assert p.blocks == ((1, 3), (2, 4), (5,))
    assert p.rgs == (0, 1, 0, 1, 2)


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition(0, [])
    with pytest.raises(ValueError):
        Partition(3, [(1, 2, 3), ()])
    with pytest.raises(ValueError):
        Partition(3, [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        Partition(3, [(1, 2)])
    with pytest.raises(ValueError):
        Partition(3, [(1, 2), (4,)])


def test_parse_format_round_trip():
    for text in ["1|2|3", "1,2,3", "1,3|2", "1,2|3,4|5"]:
        p = parse_partition(text)
        assert format_partition(p) == text
        assert parse_partition(format_partition(p)) == p


def test_parse_normalizes_order():
    assert format_partition(parse_partition("3,5|2|4,1")) == "1,4|2|3,5"


def test_parse_with_explicit_n():
    p = parse_partition("1,2|3", n=3)
    assert p.n == 3
    with pytest.raises(PartitionParseError):
        parse_partition("1,2|3", n=4)


def test_parse_errors_carry_position():
    with pytest.raises(PartitionParseError) as exc:
        parse_partition("1,|2")
    assert exc.value.position is not None
    with pytest.raises(PartitionParseError):
        parse_partition("")
    with pytest.raises(PartitionParseError):
        parse_partition("1,a|2")
    with pytest.raises(PartitionParseError):
        parse_partition("1,2||3")


def test_equality_and_hash():
    a = parse_partition("1,3|2")
    b = Partition(3, [(2,), (1, 3)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != parse_partition("1|2,3")
    assert a != parse_partition("1,3|2|4")


def test_refines():
    fine = parse_partition("1,2|3|4")
    coarse = parse_partition("1,4|2,3")
    assert fine.refines(fine)
    assert not fine.refines(coarse)
    assert not coarse.refines(fine)
    assert parse_partition("1|2,3|4").refines(parse_partition("1|2,3,4"))
    assert parse_partition("1|2|3|4").refines(fine)
    assert fine.refines(parse_partition("1,2,3,4"))
    with pytest.raises(ValueError):
        fine.refines(parse_partition("1|2,3"))


def test_meet_known_values():
    a = parse_partition("1,2,3|4,5")
    b = parse_partition("1,2|3,4,5")
    assert format_partition(meet(a, b)) == "1,2|3|4,5"
    assert meet(a, a) == a


def test_meet_is_greatest_common_refinement():
    parts = all_partitions(4)
    for a in parts:
        for b in parts:
            m = meet(a, b)
            assert m.refines(a) and m.refines(b)
            for c in parts:
                if c.refines(a) and c.refines(b):
                    assert c.refines(m)


def test_ordering_follows_rgs():
    parts = all_partitions(4)
    assert parts == sorted(parts)
    for a, b in zip(parts, parts[1:]):
        assert a.rgs < b.rgs


def test_all_partitions_counts():
    for n, bell in BELL.items():
        assert len(all_partitions(n)) == bell


def test_all_partitions_distinct():
    parts = all_partitions(5)
    assert len(set(parts)) == len(parts)


def test_enumerate_proper():
    for n in range(3, 7):
        proper = enumerate_proper(n)
        assert len(proper) == BELL[n] - 2
        assert all(1 < len(p.blocks) < n for p in proper)
        assert proper == sorted(proper)
    with pytest.raises(ValueError):
        enumerate_proper(2)


def test_rgs_table_matches_recursive_enumeration():
    for n in range(1, 9):
        table = rgs_table(n)
        assert table.dtype == np.int32
        assert [tuple(row) for row in table.tolist()] == recursive_rgs(n)
    with pytest.raises(ValueError):
        rgs_table(0)


def test_partitions_come_from_the_table():
    for n in range(1, 6):
        assert [p.rgs for p in all_partitions(n)] == recursive_rgs(n)
    for n in range(3, 7):
        assert [p.rgs for p in enumerate_proper(n)] == [tuple(row) for row in proper_rgs(n).tolist()]
        assert [format_rgs(row) for row in proper_rgs(n).tolist()] == [str(p) for p in enumerate_proper(n)]
    for n in (1, 2):
        with pytest.raises(ValueError):
            proper_rgs(n)


def test_from_rgs_inverts_rgs():
    for p in all_partitions(5):
        assert Partition.from_rgs(p.rgs) == p
