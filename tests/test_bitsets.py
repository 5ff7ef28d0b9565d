import pytest
from hypothesis import given, strategies as st

from fracsub.bitsets import (
    check_mask,
    complement,
    elements,
    full_mask,
    iter_bits,
    mask_of,
    member_bits,
    subsets,
)
from fracsub.errors import ValidationError


def test_full_mask_small():
    assert full_mask(1) == 1
    assert full_mask(3) == 7
    assert full_mask(24) == (1 << 24) - 1


def test_mask_of_and_elements_roundtrip():
    assert mask_of([1, 3], 3) == 0b101
    assert elements(0b101) == (1, 3)
    assert elements(0) == ()


def test_mask_of_validation():
    with pytest.raises(ValidationError):
        mask_of([0], 3)
    with pytest.raises(ValidationError):
        mask_of([4], 3)
    with pytest.raises(ValidationError):
        mask_of([True], 3)
    with pytest.raises(ValidationError):
        mask_of([1, 1], 3)


def test_check_mask_rejects_bool_and_range():
    with pytest.raises(ValidationError):
        check_mask(True, 3)
    with pytest.raises(ValidationError):
        check_mask(8, 3)
    with pytest.raises(ValidationError):
        check_mask(-1, 3)
    check_mask(7, 3)


def test_subsets_counts():
    assert len(list(subsets(4))) == 16


def test_iter_bits():
    assert list(iter_bits(0b1011)) == [0, 1, 3]


@given(st.integers(min_value=1, max_value=10), st.data())
def test_complement_involution(n, data):
    mask = data.draw(st.integers(min_value=0, max_value=full_mask(n)))
    assert complement(complement(mask, n), n) == mask
    assert complement(mask, n) == full_mask(n) ^ mask


@given(st.integers(min_value=1, max_value=10), st.data())
def test_elements_mask_roundtrip(n, data):
    mask = data.draw(st.integers(min_value=0, max_value=full_mask(n)))
    els = elements(mask)
    assert list(els) == sorted(els)
    if els:
        assert mask_of(els, n) == mask


@given(st.integers(min_value=1, max_value=20), st.data())
def test_member_bits_rows_are_the_masks_bits(n, data):
    masks = data.draw(st.lists(st.integers(min_value=0, max_value=full_mask(n)), max_size=6))
    bits = member_bits(masks, n)
    assert bits.shape == (len(masks), n) and bits.dtype == "uint8"
    assert bits.tolist() == [[(m >> i) & 1 for i in range(n)] for m in masks]
