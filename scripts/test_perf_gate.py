#!/usr/bin/env python3
"""Self-test of scripts/perf_gate.py on small fixture artifacts.

    python3 scripts/test_perf_gate.py

Each case writes base and PR directories of BENCH_*.json files and runs
the gate on them as CI does."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "perf_gate.py")
E14_ROW = "random sparse (10x10, d=0.15)"


def artifact(exp, rows, counters=None):
    return {"experiment": exp, "status": "ok", "jobs": 1, "wall_s": 1.0,
            "rows": rows, "metrics": {"counters": counters or {}}}


def micro(seq=None, steal=None, steal_nodes=1):
    rows = [{"bench": "exact-cc/seq-portfolio", "wall_s": seq, "nodes": 7},
            {"bench": "exact-cc/pool-steal-portfolio", "wall_s": steal,
             "steal_nodes": steal_nodes}]
    return artifact("micro", [r for r in rows if r["wall_s"] is not None])


def e14(nodes, steal_nodes=1):
    return artifact("E14", [{"function": E14_ROW, "search_nodes": nodes}],
                    {"exact_cc.nodes": nodes,
                     "exact_cc.steal_nodes": steal_nodes})


class Gate(unittest.TestCase):
    def gate(self, base, pr):
        """Run the gate on two lists of artifacts: (exit code, output)."""
        with tempfile.TemporaryDirectory() as tmp:
            dirs = []
            for side, arts in (("base", base), ("pr", pr)):
                dirs.append(os.path.join(tmp, side))
                os.mkdir(dirs[-1])
                for art in arts:
                    name = f"BENCH_{art['experiment']}.json"
                    with open(os.path.join(dirs[-1], name), "w") as f:
                        json.dump(art, f)
            out = subprocess.run([sys.executable, GATE, *dirs],
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True)
        return out.returncode, out.stdout

    def test_b7_pooled_faster_passes(self):
        code, out = self.gate([micro()], [micro(seq=3.0, steal=2.1)])
        self.assertEqual(code, 0, out)
        self.assertIn("seq-portfolio 3.000s ok", out)

    def test_b7_pooled_not_faster_fails(self):
        for steal in (3.0, 3.5):
            code, out = self.gate([micro()], [micro(seq=3.0, steal=steal)])
            self.assertEqual(code, 1, out)
            self.assertIn("does not beat the sequential search", out)

    def test_b7_rows_absent_skips(self):
        for pr in (micro(), micro(seq=3.0), micro(steal=2.0)):
            code, out = self.gate([micro()], [pr])
            self.assertEqual(code, 0, out)
            self.assertIn("relational check skipped", out)

    def test_nodes_zero_tolerance(self):
        code, out = self.gate([e14(32098)], [e14(32099)])
        self.assertEqual(code, 1, out)
        self.assertIn(f"{E14_ROW}: nodes grew 32098 -> 32099", out)
        self.assertIn("exact_cc.nodes grew 32098 -> 32099", out)
        for nodes in (32098, 100):
            code, out = self.gate([e14(32098)], [e14(nodes)])
            self.assertEqual(code, 0, out)

    def test_steal_counters_exempt(self):
        code, out = self.gate(
            [e14(5), micro(steal=2.0)],
            [e14(5, steal_nodes=10**6), micro(steal=2.0, steal_nodes=10**6)])
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main()
