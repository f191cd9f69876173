"""Scaling past 16-way entanglement with RE-compressed patterns.

The Qat hardware tops out at 65,536-bit AoB values (16-way).  The
paper's section 1.2 scaling story is software: treat those values as
symbols in a run-length compressed "regular expression".  This example
factors a 20-bit semiprime -- 2^20 entanglement channels, 16x past the
hardware -- and shows the compression statistics that make it cheap.

Usage::

    python examples/beyond_the_hardware_limit.py
"""

import time

from repro.apps import factor_channels
from repro.pattern import ChunkStore, PatternVector


def compression_demo() -> None:
    print("== RE compression of regular superpositions ==")
    store = ChunkStore(16)  # 65,536-bit chunks: the hardware word
    print(f"chunks are {store.chunk_bits}-bit AoB values (one Qat register)")
    for ways in (18, 20, 22, 24):
        h = PatternVector.hadamard(ways, ways - 1, store)
        dense_mb = (1 << ways) / 8 / 1e6
        print(
            f"  H({ways - 1}) at {ways}-way: dense {dense_mb:8.2f} MB -> "
            f"{h.num_runs} runs over {h.storage_chunks()} distinct chunks "
            f"(compression {h.compression_ratio():.0f}x)"
        )


def factoring_demo() -> None:
    n = 641 * 769  # 492,929: needs 10+10 bits -> 20-way entanglement
    print(f"\n== Factoring {n} at 20-way entanglement (pattern backend) ==")
    start = time.perf_counter()
    pairs = factor_channels(n, 10, 10, backend="pattern", chunk_ways=16)
    elapsed = time.perf_counter() - start
    print(f"factor pairs: {pairs}  ({elapsed:.2f}s)")


def main() -> None:
    compression_demo()
    factoring_demo()


if __name__ == "__main__":
    main()
