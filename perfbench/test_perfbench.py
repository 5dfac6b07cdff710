#!/usr/bin/env python3
"""Tests of the benchmark itself.  Run from the root of the checkout:

    python3 perfbench/test_perfbench.py

They build the benchmark, start short-lived daemons through run.py and
take about twenty seconds on a 2-core machine."""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def perfbench(*args, stdin=None):
    return subprocess.run([run.PERFBENCH, *args], input=stdin,
                          stdout=subprocess.PIPE, text=True, check=True).stdout


def gen(workload, seed, seconds="0.05"):
    return perfbench("gen", "--workload", workload, "--seed", str(seed),
                     "--seconds", seconds)


def bench(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    return out.returncode, json.loads(out.stdout.strip().splitlines()[-1])


class Benchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.spec = bench_spec()
        cls.workloads = json.loads(perfbench("workloads"))

    def test_workloads_and_reasons_match_benchmark_json(self):
        self.assertEqual(
            [(w["name"], w["why"]) for w in self.spec["workloads"]],
            [(w["name"], w["why"]) for w in self.workloads])

    def test_same_seed_same_stream_and_answers(self):
        for w in self.workloads:
            a, b = gen(w["name"], 7), gen(w["name"], 7)
            self.assertTrue(a)
            self.assertEqual(a, b, w["name"])
            self.assertNotEqual(a, gen(w["name"], 8), w["name"])
        lines = gen("serve-mix", 7)
        self.assertEqual(perfbench("answer", stdin=lines),
                         perfbench("answer", stdin=lines))

    def test_tampered_reply_fails_the_check(self):
        lines = gen("serve-mix", 5)
        replies = perfbench("answer", stdin=lines).splitlines()
        os.makedirs(run.WORK, exist_ok=True)
        req, rep = os.path.join(run.WORK, "req"), os.path.join(run.WORK, "rep")
        with open(req, "w") as f:
            f.write(lines)

        def verify(reps):
            with open(rep, "w") as f:
                f.write("\n".join(reps) + "\n")
            return subprocess.run([run.PERFBENCH, "verify", req, rep],
                                  stdout=subprocess.PIPE).returncode

        self.assertEqual(verify(replies), 0)
        for op, field in [("singular", "rank"), ("lower_bounds", "fooling_set"),
                          ("protocol", "bits")]:
            i = next(k for k, r in enumerate(replies) if json.loads(r)["op"] == op)
            bad = json.loads(replies[i])
            bad[field] += 1
            self.assertEqual(verify(replies[:i] + [json.dumps(bad)] + replies[i + 1:]),
                             1, op)
        ec = [json.dumps({"op": "exact_cc", "matrix": ["0110", "1001", "1111"]})]
        good = json.loads(perfbench("answer", stdin=ec[0] + "\n"))
        with open(req, "w") as f:
            f.write(ec[0] + "\n")
        self.assertEqual(verify([json.dumps(good)]), 0)
        for field in ["value", "canon_rows", "root_lower", "root_upper"]:
            bad = dict(good, **{field: good[field] + 1})
            self.assertEqual(verify([json.dumps(bad)]), 1, field)

    def test_metric_names(self):
        for group in ("end_to_end", "per_layer"):
            for m in self.spec[group]:
                self.assertRegex(m["name"], NAME)

    def test_every_workload_emits_every_metric(self):
        e2e = [m["name"] for m in self.spec["end_to_end"]]
        layers = [m["name"] for m in self.spec["per_layer"]]
        for w in self.workloads:
            for trace, names in ((0, e2e), (1, layers)):
                code, res = bench(w["name"], trace)
                self.assertEqual(code, 0, w["name"])
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(sorted(res["metrics"]), sorted(names),
                                 (w["name"], trace))
                for k, v in res["metrics"].items():
                    self.assertRegex(k, NAME)
                    self.assertIsInstance(v["value"], (int, float))
                if trace == 0:
                    for k in e2e:
                        self.assertGreater(res["metrics"][k]["value"], 0, k)


if __name__ == "__main__":
    unittest.main()
