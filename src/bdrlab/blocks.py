"""Fixed-size blocks for long element-wise passes.

A pass over a long series that needs temporaries runs block by block, so
each temporary holds BLOCK_VALUES values whatever the series' length. A
full-size temporary costs more than its arithmetic: numpy takes it from the
allocator as fresh pages, which the kernel faults in on first touch, and a
later call faults them in again once the allocator has returned them.
"""

from __future__ import annotations

# Values per block: 2^15 float64 values are 256 KB, which sit in a core's L2
# cache between the passes over one block.
BLOCK_VALUES = 1 << 15


def blocks(n: int):
    """The slices [start, start + BLOCK_VALUES) that cover range(n), in
    order; the last one may be shorter."""
    return (slice(start, min(start + BLOCK_VALUES, n))
            for start in range(0, n, BLOCK_VALUES))
