import time

import pytest

import oracles
import planepart as pp


class TestExactTable:
    def test_against_product_oracle(self):
        oracle = oracles.p2_by_product(200)
        table = pp.p2_exact_table(200)
        assert list(table.values) == oracle

    def test_first_values(self):
        table = pp.p2_exact_table(8)
        assert list(table.values) == [1, 1, 3, 6, 13, 24, 48, 86, 160]

    def test_n0(self):
        assert pp.p2_exact_table(0)[0] == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pp.p2_exact_table(-1)

    def test_runtime_to_1000(self):
        start = time.monotonic()
        pp.p2_exact_table(1000)
        assert time.monotonic() - start < 5.0

    def test_monotone_growth(self):
        table = pp.p2_exact_table(100)
        for n in range(2, 101):
            assert table[n] > table[n - 1]

