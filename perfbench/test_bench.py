"""Tests of the benchmark's own logic; no mhdes process is started.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import unittest

import run
import spans


def span(sid, parent, name, start, end, tid=1, cpu=None):
    return {"id": sid, "parent": parent, "name": name, "start": start,
            "end": end, "tid": tid, "cpu": end - start if cpu is None else cpu,
            "error": None, "converged": None}


class SelfTimeTest(unittest.TestCase):
    def test_nested_children_are_subtracted_once(self):
        s = [span(0, None, "a", 0.0, 10.0), span(1, 0, "b", 1.0, 4.0),
             span(2, 1, "c", 2.0, 3.0), span(3, 0, "b", 6.0, 7.0)]
        own = spans.self_times(s)
        self.assertAlmostEqual(own[0], 6.0)
        self.assertAlmostEqual(own[1], 2.0)
        self.assertAlmostEqual(own[2], 1.0)
        self.assertAlmostEqual(own[3], 1.0)

    def test_overlapping_children_from_two_threads(self):
        s = [span(0, None, "cli.main", 0.0, 10.0, tid=1),
             span(1, 0, "critical.minimize_over_a", 1.0, 6.0, tid=2),
             span(2, 0, "critical.minimize_over_a", 4.0, 8.0, tid=3)]
        self.assertAlmostEqual(spans.self_times(s)[0], 3.0)
        m = spans.layer_metrics([s])
        self.assertAlmostEqual(m["cli.main.self_s"], 3.0)
        self.assertAlmostEqual(m["cli.concurrency"], 0.9)

    def test_child_running_past_its_parent_is_clipped(self):
        s = [span(0, None, "a", 0.0, 5.0), span(1, 0, "b", 3.0, 9.0, tid=2)]
        self.assertAlmostEqual(spans.self_times(s)[0], 3.0)

    def test_worker_span_takes_main_thread_span_as_parent(self):
        import threading
        rec = spans.Recorder()
        root = rec.begin()
        box = {}
        worker = threading.Thread(target=lambda: box.update(span=rec.begin()))
        worker.start()
        worker.join(timeout=10)
        self.assertFalse(worker.is_alive())
        self.assertEqual(box["span"][1], root[0])

    def test_solves_per_minimum_counts_only_solves_inside_minima(self):
        s = [span(0, None, "critical.minimize_over_a", 0.0, 10.0),
             span(1, 0, "orr_evp.solve_max_m", 1.0, 2.0),
             span(2, 0, "orr_evp.solve_max_m", 3.0, 4.0),
             span(3, None, "orr_evp.solve_max_m", 11.0, 12.0)]
        m = spans.layer_metrics([s])
        self.assertEqual(m["critical.solves_per_minimum"], 2.0)
        self.assertEqual(m["orr_evp.solve_max_m.calls"], 3)


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(range(19)))
        self.assertEqual(run.tail_percentile(range(1, 21)), (50.0, 10))
        self.assertEqual(run.tail_percentile(range(1, 100))[0], 50.0)
        self.assertEqual(run.tail_percentile(range(1, 101)), (90.0, 90))
        self.assertEqual(run.tail_percentile(range(1, 1001)), (99.0, 990))
        self.assertEqual(run.tail_percentile(range(1, 10001))[0], 99.9)


REFERENCE = {
    "neutral": {"couette:1": {"a_crit": 1.9, "Re_E": 49.66, "converged": True}},
    "curve": {"couette:1e-06": [[1.5, 45.0], [1.9, 44.31], [2.5, 46.0]]},
    "verify": {"couette:1": {"a": 1.2, "m": 0.0175, "checks": {
        "ratio_identity": True, "random_trial_bound": True}}},
}
NEUTRAL = run.Job("neutral", (), ("couette:1",))
CURVE = run.Job("curve", (), ("couette:1e-06",))
VERIFY = run.Job("verify", (), ("couette:1",))
NEGATIVE = run.Job("negative", (), ("couette:1",))


def neutral_csv(Re_E, a_crit=1.9, converged="true"):
    return ("flow,Ha,Pm,a_crit,Re_E,N,converged\n"
            f"couette,1.0,0.1,{a_crit!r},{Re_E!r},60,{converged}\n")


def curve_json(rows):
    return json.dumps({"curves": [{"flow": "couette", "Ha": 1e-6,
                                   "rows": rows}]})


def verify_json(m, rtb=True):
    return json.dumps({"flow": "couette", "points": [{"Ha": 1.0, "a": 1.2, "m": m, "checks": {
        "ratio_identity": {"passed": True},
        "random_trial_bound": {"passed": rtb}}}]})


class ReferenceCheckTest(unittest.TestCase):
    def test_sweep(self):
        ok = run.check(NEUTRAL, 0, neutral_csv(49.66 * (1 + 5e-8)), REFERENCE)
        self.assertEqual(ok, (1, []))
        for text in (neutral_csv(49.66 * (1 + 2e-7)),
                     neutral_csv(49.66, a_crit=1.9 + 2e-3),
                     neutral_csv(49.66, converged="false"),
                     neutral_csv(float("nan"))):
            self.assertEqual(len(run.check(NEUTRAL, 0, text, REFERENCE)[1]), 1)
        self.assertEqual(len(run.check(NEUTRAL, 3, "", REFERENCE)[1]), 1)

    def test_curve(self):
        rows = copy.deepcopy(REFERENCE["curve"]["couette:1e-06"])
        self.assertEqual(run.check(CURVE, 0, curve_json(rows), REFERENCE),
                         (3, []))
        rows[0][1] *= 1 + 1e-7
        self.assertEqual(len(run.check(CURVE, 0, curve_json(rows), REFERENCE)[1]), 1)

    def test_curve_hydro_minimum_must_match_the_classical_value(self):
        far = {"curve": {"couette:1e-06": [[1.5, 46.0], [1.9, 45.0]]}}
        n, fails = run.check(CURVE, 0, curve_json(far["curve"]["couette:1e-06"]), far)
        self.assertEqual((n, len(fails)), (2, 1))

    def test_verify(self):
        self.assertEqual(run.check(VERIFY, 0, verify_json(0.0175), REFERENCE),
                         (1, []))
        for text in (verify_json(0.0175 * (1 + 1e-7)),
                     verify_json(0.0175, rtb=False)):
            self.assertEqual(len(run.check(VERIFY, 0, text, REFERENCE)[1]), 1)

    def test_negative_control_must_be_rejected(self):
        rejected = verify_json(0.0175, rtb=False)
        self.assertEqual(run.check(NEGATIVE, 4, rejected, REFERENCE), (1, []))
        self.assertEqual(len(run.check(NEGATIVE, 0, verify_json(0.0175),
                                       REFERENCE)[1]), 1)
        self.assertEqual(len(run.check(NEGATIVE, 4, verify_json(0.0175),
                                       REFERENCE)[1]), 1)


if __name__ == "__main__":
    unittest.main()
