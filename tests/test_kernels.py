from hypothesis import given, settings, strategies as st

from massfusion import kernels


clause_lists = st.lists(st.integers(0, (1 << 6) - 1), min_size=1, max_size=8)
elements = clause_lists.map(kernels.absorb_masks)


@given(clause_lists)
@settings(max_examples=300)
def test_absorb_yields_sorted_antichain(masks):
    out = kernels.absorb_masks(masks)
    assert list(out) == sorted(set(out))
    for a in out:
        for b in out:
            if a != b:
                assert a & ~b != 0, (a, b)


@given(clause_lists)
@settings(max_examples=300)
def test_absorb_is_idempotent(masks):
    once = kernels.absorb_masks(masks)
    assert kernels.absorb_masks(once) == once


@given(elements, elements)
@settings(max_examples=300)
def test_ops_commute(a, b):
    assert kernels.intersect_canon(a, b) == kernels.intersect_canon(b, a)
    assert kernels.union_canon(a, b) == kernels.union_canon(b, a)


def test_selected_backend_is_reported():
    assert kernels.BACKEND == "pure"
