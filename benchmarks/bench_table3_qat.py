"""TAB3 bench: Qat coprocessor operations at full 16-way scale."""

import random

import numpy as np
import pytest

from repro.aob import AoB
from repro.cpu import DenseQatBackend

from harness import experiment_table3, format_table

WAYS = 16
NBITS = 1 << WAYS


def test_table3_rows(benchmark, capsys):
    rows = benchmark.pedantic(experiment_table3, rounds=1, iterations=1)
    with capsys.disabled():
        print("\n[TAB3] Qat ALU ops on 65,536-bit AoB values (Table 3)")
        print(format_table(rows))
    by_op = {r["op"]: r for r in rows}
    # measurement ops are not slower than whole-vector gates by orders
    # of magnitude -- meas is effectively O(1)
    assert by_op["meas"]["microseconds"] < by_op["ccnot"]["microseconds"] * 50


@pytest.fixture(scope="module")
def regfile():
    """The CPU's view: the dense backend's 256 int registers, random."""
    rng = random.Random(3)
    qat = DenseQatBackend(WAYS)
    for reg in range(256):
        qat.write(reg, AoB(WAYS, rng.getrandbits(NBITS)))
    return qat


def test_bench_kernel_and(benchmark, regfile):
    benchmark(regfile.binary, "and", 2, 0, 1)


def test_bench_kernel_ccnot(benchmark, regfile):
    benchmark(regfile.ccnot, 3, 4, 5)


def test_bench_kernel_cswap(benchmark, regfile):
    benchmark(regfile.cswap, 6, 7, 8)


def test_bench_kernel_had(benchmark, regfile):
    benchmark(regfile.had, 9, 7)


def test_bench_kernel_meas(benchmark, regfile):
    benchmark(regfile.meas, 10, 54321)


def test_bench_kernel_next_sparse(benchmark, regfile):
    """next over a nearly-empty register: the longest scan."""
    bits = np.zeros(NBITS, dtype=np.uint8)
    bits[NBITS - 2] = 1
    regfile.write(12, AoB.from_bits(bits))
    result = benchmark(regfile.next, 12, 0)
    assert result == NBITS - 2


def test_bench_kernel_pop_after(benchmark, regfile):
    benchmark(regfile.pop_after, 11, 100)
