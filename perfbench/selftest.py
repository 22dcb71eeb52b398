"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  They check the span self-time
arithmetic, the scaling of times to the reference speed and the speed
sampling of units and their pool workers, that a verdict disagreeing with
the expected table is counted as a failed unit, and that fresh-process
isolation is observable: running
msd-le-3 and universal-vertex in one interpreter must visibly differ from
running each in its own.  The file is not named ``test_*.py`` so that the
repository's pytest run does not collect these multi-second sweeps.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import unit  # noqa: E402


def _span(start, end, parent=-1, name="x"):
    return [name, start, end, parent]


class SelfTimeTest(unittest.TestCase):
    def test_span_without_children_keeps_its_whole_duration(self):
        self.assertEqual(run.self_times([_span(2.0, 5.5)]), [3.5])

    def test_nested_spans_subtract_only_direct_children(self):
        spans = [
            _span(0.0, 10.0),        # 0: root
            _span(1.0, 4.0, 0),      # 1: child of root
            _span(2.0, 3.0, 1),      # 2: grandchild, inside 1
            _span(5.0, 9.0, 0),      # 3: second child of root
        ]
        self.assertEqual(run.self_times(spans), [3.0, 2.0, 1.0, 4.0])

    def test_layer_totals_sum_self_time_per_name(self):
        totals = run.LayerTotals()
        totals.add({
            "names": ["verify", "canonical.tree"],
            "spans": [[0, 0.0, 4.0, -1], [1, 1.0, 2.0, 0], [1, 2.5, 3.0, 0]],
            "counters": {"domination.gamma_t.cache_size": 7, "enumeration.codes": 3},
        })
        self.assertEqual(totals.calls, {"verify": 1, "canonical.tree": 2})
        self.assertAlmostEqual(totals.self_s["verify"], 2.5)
        self.assertAlmostEqual(totals.self_s["canonical.tree"], 1.5)
        self.assertEqual(totals.cache_size, 7)
        self.assertEqual(totals.counters, {"enumeration.codes": 3})


class SpeedTest(unittest.TestCase):
    def test_time_at_reference_speed_excludes_sampling_and_scales(self):
        speed = {"sample_s": 2 * run.REF_SAMPLE_S, "own_s": 0.25}
        self.assertAlmostEqual(run.at_ref(2.25, speed), 1.0)
        self.assertAlmostEqual(run.at_ref(2.25, dict(speed, sample_s=run.REF_SAMPLE_S)), 2.0)

    def test_pool_workers_send_their_samples(self):
        checked = run.Run()
        got = run.sweep_unit(checked, "tree-sd-eq-msd", 2, n_max=11, expected={"tree-sd-eq-msd": 434})
        self.assertIsNotNone(got, checked.errors)
        out = got[1]
        # the parent alone takes one sample per interval; two workers add theirs
        self.assertGreater(out["speed"]["samples"], 1.5 * out["elapsed_s"] / unit.SPEED_INTERVAL_S)
        self.assertGreater(out["speed"]["sample_s"], 0)

    def test_cli_unit_prints_the_cli_output_and_its_speed(self):
        checked = run.Run()
        got = run.query_unit(checked, ("k4", "msd_t"))
        self.assertIsNotNone(got, checked.errors)
        self.assertEqual(got[1]["value"], 2)
        self.assertGreater(got[1]["speed"]["samples"], 0)
        self.assertLess(run.at_ref(got[0].seconds, got[1]["speed"]), 60.0)


class VerdictCheckTest(unittest.TestCase):
    def test_tampered_expected_count_is_a_failed_unit(self):
        tampered = dict(run.EXPECTED_GRAPHS, **{"lemma14-implies": 986})
        checked = run.Run()
        sweep = checked.unit("lemma14", [sys.executable, str(run.UNIT), "sweep", "lemma14-implies", "1"])
        self.assertIsNotNone(sweep, checked.errors)
        out = sweep[1]
        self.assertIsNone(run.check_sweep("lemma14-implies", out))
        self.assertFalse(checked.fail(run.check_sweep("lemma14-implies", out, tampered)))
        self.assertEqual(checked.attempted, 1)
        self.assertEqual(len(checked.errors), 1)
        self.assertIn("lemma14-implies", checked.errors[0])
        self.assertIn("986", checked.errors[0])

    def test_reported_counterexample_or_warm_unit_fails(self):
        good = {"fresh": True, "graphs_checked": 995, "failures": 0}
        self.assertIsNone(run.check_sweep("msd-le-3", good))
        self.assertIsNotNone(run.check_sweep("msd-le-3", dict(good, failures=1)))
        self.assertIsNotNone(run.check_sweep("msd-le-3", dict(good, fresh=False)))

    def test_query_value_mismatch_or_warm_unit_fails(self):
        self.assertIsNone(run.check_query(("k4", "msd_t"), {"value": 2}))
        self.assertIsNone(run.check_query(("k4", "msd_t"), {"value": 2, "fresh": True}))
        self.assertIn("k4 msd_t", run.check_query(("k4", "msd_t"), {"value": 3}))
        self.assertIsNotNone(run.check_query(("k4", "msd_t"), {}))
        self.assertIsNotNone(run.check_query(("k4", "msd_t"), {"value": 2, "fresh": False}))


# both theorems share the _msd3 cache and the gamma_t cache when run together
_SHARED = """
import json, sys, time
sys.path.insert(0, "perfbench")
import unit
from tdmsd.verify import run_verification
out = {}
for th in ("msd-le-3", "universal-vertex"):
    t = time.perf_counter()
    run_verification(th)
    out[th] = time.perf_counter() - t
out["fresh"] = unit._fresh()
print(json.dumps(out))
"""


class IsolationTest(unittest.TestCase):
    def test_shared_interpreter_hides_cost_that_fresh_units_show(self):
        _, code, stdout, stderr = run.spawn([sys.executable, "-c", _SHARED])
        self.assertEqual(code, 0, stderr)
        shared = json.loads(stdout)
        warm = shared["universal-vertex"]
        self.assertFalse(shared["fresh"], "the unit freshness check must see warm caches")
        checked = run.Run()
        got = run.sweep_unit(checked, "universal-vertex", 1)
        self.assertIsNotNone(got, checked.errors)
        cold = got[1]
        self.assertTrue(cold["fresh"])
        # about 1.5 s cold against about 0.01 s warm at the seed
        self.assertLess(warm, 0.5 * cold["elapsed_s"])

    def test_units_never_see_the_on_disk_cache(self):
        os.environ["TDMSD_CACHE_DIR"] = "gamma-cache"
        try:
            self.assertNotIn("TDMSD_CACHE_DIR", run._env())
        finally:
            del os.environ["TDMSD_CACHE_DIR"]

    def test_unit_that_loads_the_on_disk_cache_is_not_fresh(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as cache_dir:
            env = dict(run._env(), TDMSD_CACHE_DIR=cache_dir)
            args = [sys.executable, str(run.UNIT), "query", "k4", "msd_t", "--trace"]
            proc = subprocess.run(args, cwd=run.ROOT, env=env, capture_output=True, text=True, check=True)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(out["value"], 2)
        self.assertFalse(out["fresh"])
        self.assertIn("warm caches", run.check_query(("k4", "msd_t"), out))


if __name__ == "__main__":
    unittest.main()
