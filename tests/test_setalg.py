import numpy as np
import pytest
from hypothesis import given, strategies as st

from vsakit.setalg import (
    BindingBundleSpec,
    SequenceSpec,
    SymbolSet,
    add,
    intersection_size,
    l1_distance,
    require_flat,
    wedgedot,
)


def ids(d, *symbols):
    return SymbolSet.from_ids(d, symbols)


def test_intersection_examples():
    assert intersection_size(ids(8, 1, 2, 3), ids(8, 2, 3, 4)) == 2
    x = ids(8, 0, 5, 7)
    assert intersection_size(x, x) == 3
    assert intersection_size(SymbolSet(8), x) == 0


def test_wedgedot_examples():
    a = SymbolSet(3, {0: 1, 1: 2})
    b = SymbolSet(3, {1: 2, 2: 3})
    assert wedgedot(a, b) == 2
    assert wedgedot(a, a) == a.l1() == 3
    # 0/1 sets: wedgedot equals intersection size
    x, y = ids(9, 1, 4), ids(9, 4, 8)
    assert wedgedot(x, y) == intersection_size(x, y) == 1


def test_l1_distance_examples():
    assert l1_distance(ids(5, 1, 2), ids(5, 2, 3)) == 2
    x = ids(5, 0, 3)
    assert l1_distance(x, x) == 0
    a = SymbolSet(3, {0: 1, 1: 2})
    b = SymbolSet(3, {1: 2, 2: 3})
    assert l1_distance(a, b) == 4
    assert l1_distance(a, b) == a.l1() + b.l1() - 2 * wedgedot(a, b)


def test_weighted_rejected_where_flat_required():
    with pytest.raises(ValueError):
        require_flat(SymbolSet(4, {0: 2}))
    require_flat(ids(4, 1))


def test_universe_mismatch():
    with pytest.raises(ValueError):
        intersection_size(ids(4, 1), ids(5, 1))


def test_validation():
    with pytest.raises(ValueError, match="universe size d must be an integer, got True"):
        SymbolSet(np.True_)
    with pytest.raises(ValueError):
        SymbolSet(4, {4: 1})  # id out of range
    with pytest.raises(ValueError):
        SymbolSet(4, {1: 0})  # zero weight
    with pytest.raises(ValueError):
        SymbolSet.from_ids(4, [1, 1])


@pytest.mark.parametrize("entries, message", [
    ({0: 1, 5: 1, -1: 1}, r"symbol id 5 outside universe \[0, 4\)"),  # first bad entry
    ({1: 2, 2: 0}, "weight for symbol 2 must be >= 1, got 0"),
    ({2: 1, True: 1}, "a symbol id must be an integer, got True"),
    ({1: 1, 2: 1.5}, "a weight must be an integer, got 1.5"),
    ({1: 1, "2": 1}, "a symbol id must be an integer, got '2'"),
])
def test_validation_names_the_first_bad_entry(entries, message):
    with pytest.raises(ValueError, match=message):
        SymbolSet(4, entries)


def test_numpy_and_integral_float_entries_become_ints():
    import numpy as np

    s = SymbolSet(8, {np.int64(3): np.int64(2), 5: 1.0, 1: 1})
    assert dict(s.entries) == {3: 2, 5: 1, 1: 1}
    assert all(type(x) is int for pair in s.entries.items() for x in pair)
    assert list(SymbolSet.from_ids(8, np.array([6, 2])).entries) == [6, 2]


entries = st.dictionaries(st.integers(0, 19), st.integers(1, 5), max_size=12)


@given(entries, entries)
def test_wedgedot_l1_identity(ea, eb):
    a, b = SymbolSet(20, ea), SymbolSet(20, eb)
    assert 2 * wedgedot(a, b) == a.l1() + b.l1() - l1_distance(a, b)


@given(entries, entries)
def test_symmetry(ea, eb):
    a, b = SymbolSet(20, ea), SymbolSet(20, eb)
    assert wedgedot(a, b) == wedgedot(b, a)
    assert intersection_size(a, b) == intersection_size(b, a)
    assert l1_distance(a, b) == l1_distance(b, a)


@given(entries, entries)
def test_add_is_weightwise(ea, eb):
    a, b = SymbolSet(20, ea), SymbolSet(20, eb)
    s = add(a, b)
    assert s.l1() == a.l1() + b.l1()
    for sym in s.support:
        assert s.weight(sym) == a.weight(sym) + b.weight(sym)


def test_sequence_spec_length_and_universe():
    seq = SequenceSpec((ids(6, 0, 1), ids(6, 1, 2), ids(6, 1)))
    assert len(seq.sets) == 3 and seq.d == 6
    assert seq.total_l1() == 5
    with pytest.raises(ValueError):
        SequenceSpec(())
    with pytest.raises(ValueError):
        SequenceSpec((ids(6, 0), ids(7, 0)))


def test_binding_spec_validation():
    spec = BindingBundleSpec(8, frozenset({frozenset({1, 2}), frozenset({2, 3})}))
    assert spec.size == 2
    with pytest.raises(ValueError):
        BindingBundleSpec(8, frozenset({frozenset({1, 2}), frozenset({1, 2, 3})}))
    with pytest.raises(ValueError):
        BindingBundleSpec(8, frozenset({frozenset({1})}))
    with pytest.raises(ValueError):
        BindingBundleSpec(8, frozenset())
    with pytest.raises(ValueError):
        BindingBundleSpec(3, frozenset({frozenset({1, 5})}))
    with pytest.raises(ValueError, match="a symbol id must be an integer"):
        BindingBundleSpec(8, {frozenset({1.5, 2.7})})  # not truncated to {1, 2}
    spec = BindingBundleSpec(8, {frozenset({np.int64(1), 2.0})})
    assert spec.edges == {frozenset({1, 2})}
    assert all(type(i) is int for edge in spec.edges for i in edge)


def test_symbolset_json_round_trip():
    s = SymbolSet(9, {3: 2, 7: 1})
    assert SymbolSet.from_json_obj(s.to_json_obj()) == s


def test_symbol_set_refuses_an_empty_universe():
    for d in (0, -1):
        with pytest.raises(ValueError, match="^universe size d must be positive$"):
            SymbolSet(d)
