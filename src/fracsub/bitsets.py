"""Bitmask encoding of subsets of the ground set [1:n].

Element i (1-indexed everywhere outside this module's masks) occupies
bit i-1, so the subset {1,3} of any ground set is the mask 0b101 = 5.
Dense tables are indexed directly by mask: index i encodes the subset
whose mask is i.  Conversion to and from 1-indexed element lists
happens only at I/O boundaries.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import ValidationError

# the one cap on the ground set size, for tables and matrices alike
MAX_GROUND = 24

# dataclass field metadata: the field holds a mask (or tuples of masks),
# which reports render as 1-indexed element lists
MASKS = {"masks": True}


def full_mask(n: int) -> int:
    return (1 << n) - 1


def complement(mask: int, n: int) -> int:
    return full_mask(n) & ~mask


def mask_of(elements_1idx: Iterable[int], n: int) -> int:
    """Mask of a collection of 1-indexed elements; rejects out-of-range."""
    mask = 0
    for e in elements_1idx:
        if not isinstance(e, int) or isinstance(e, bool) or not 1 <= e <= n:
            raise ValidationError(f"element {e!r} outside ground set [1:{n}]")
        bit = 1 << (e - 1)
        if mask & bit:
            raise ValidationError(f"element {e} listed twice")
        mask |= bit
    return mask


def elements(mask: int) -> tuple[int, ...]:
    """1-indexed elements of a mask, ascending."""
    out = []
    i = 1
    m = mask
    while m:
        if m & 1:
            out.append(i)
        m >>= 1
        i += 1
    return tuple(out)


def subsets(n: int) -> range:
    """All subset masks of [1:n] in table order."""
    return range(1 << n)


def iter_bits(mask: int) -> Iterator[int]:
    """0-indexed bit positions set in mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_mask(mask: int, n: int) -> int:
    if not isinstance(mask, int) or isinstance(mask, bool):
        raise ValidationError(f"subset mask must be int, got {type(mask).__name__}")
    if not 0 <= mask < (1 << n):
        raise ValidationError(f"mask {mask} outside table for ground set [1:{n}]")
    return mask
