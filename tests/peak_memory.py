"""Peak traced bytes of a call, for the tests of the memory estimates."""

import tracemalloc

# What numpy allocates whatever the array sizes: a buffered loop (such as a
# reduction over a strided axis) takes a buffer of up to 8192 doubles. The estimates count arrays, and leave this and the
# interpreter's own objects to the fixed amount the memory budget keeps on top.
FIXED_BYTES = 8 * 8192


def traced_peak(fn) -> int:
    """Peak bytes that `fn()` allocates. An untraced first call pays for the
    modules numpy imports on first use."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
