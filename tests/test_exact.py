import json

import pytest

import oracles
import planepart as pp
from conftest import run_in_fresh_process


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
        # a cold build: in this process the table may already reach past 1000
        script = ("import time\nimport planepart as pp\n"
                  "start = time.monotonic()\ntable = pp.p2_exact_table(1000)\n"
                  "print(time.monotonic() - start, len(table.values))\n")
        seconds, length = run_in_fresh_process(script).split()
        assert int(length) == 1001 and float(seconds) < 5.0

    def test_monotone_growth(self):
        table = pp.p2_exact_table(100)
        for n in range(2, 101):
            assert table[n] > table[n - 1]


@pytest.fixture(scope="module")
def oracle_500():
    return oracles.p2_by_product(500)


class TestSharedTable:
    # a process computes each p2(n) once: every table is a prefix of one
    # list that the calls grow, whatever order they come in

    def test_any_call_order(self, oracle_500):
        ns = (300, 100, 300, 0, 500)
        script = ("import json, sys\nimport planepart as pp\n"
                  "print(json.dumps([pp.p2_exact_table(int(N)).values for N in sys.argv[1:]]))\n")
        tables = json.loads(run_in_fresh_process(script, *ns))
        assert [len(values) for values in tables] == [N + 1 for N in ns]
        for N, values in zip(ns, tables):
            assert values == oracle_500[: N + 1], N

    def test_bad_input_leaves_the_table_whole(self, oracle_500):
        # -1 on a cold table, then a call that builds it
        script = ("import json\nimport planepart as pp\n"
                  "try:\n    pp.p2_exact_table(-1)\nexcept ValueError:\n    pass\n"
                  "else:\n    raise SystemExit('p2_exact_table(-1) did not raise')\n"
                  "print(json.dumps(pp.p2_exact_table(250).values))\n")
        assert json.loads(run_in_fresh_process(script)) == oracle_500[:251]

    def test_threads_on_a_cold_table(self, oracle_500):
        # six threads ask for six different N, each started while the ones
        # before it extend the table, switching every microsecond; each must
        # finish with its own exact prefix
        ns = (400, 50, 330, 120, 260, 190)
        script = ("import json, sys, threading\nimport planepart as pp\n"
                  "sys.setswitchinterval(1e-6)\n"
                  "ns, tables = [int(a) for a in sys.argv[1:]], {}\n"
                  "def build(N):\n    tables[N] = pp.p2_exact_table(N).values\n"
                  "threads = [threading.Thread(target=build, args=(N,)) for N in ns]\n"
                  "for t in threads:\n    t.start()\n"
                  "for t in threads:\n    t.join(timeout=60)\n"
                  "print(json.dumps({'alive': sum(t.is_alive() for t in threads),"
                  " 'tables': [tables.get(N) for N in ns]}))\n")
        out = json.loads(run_in_fresh_process(script, *ns))
        assert out["alive"] == 0
        for N, values in zip(ns, out["tables"]):
            assert values == oracle_500[: N + 1], N
