"""Tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import metrics


def sample(spec, fp, error=0, latency=10.0, attempt=0):
    """A perfbench_drive sample: [spec, sched, send, recv, error, fp, server_ms, sim_ms, round]."""
    return [spec, 0.0, 0.5, latency, error, fp, latency - 1.0, 0.25, attempt]


def fixture_run(window_fps):
    """A minimal perfbench_drive document: two specs, one round."""
    cpu = "cpu  100 0 50 1000 0 0 0 10 0 0"
    cpu_later = "cpu  300 0 90 1400 0 0 0 12 0 0"
    proc = "4242 (dynasparse_serv) S " + " ".join(["0"] * 10) + " 200 100" + " 0" * 30
    proc_later = "4242 (dynasparse_serv) S " + " ".join(["0"] * 10) + " 260 120" + " 0" * 30
    return {
        "workload": "fixture", "seed": 1, "rate": 100.0, "unit_size": 1,
        "refs": [{"spec": "a", "fp": "aaaa", "max_abs_diff": 0.0},
                 {"spec": "b", "fp": "bbbb", "max_abs_diff": 0.0}],
        "warm": [sample(0, "aaaa"), sample(1, "bbbb")],
        "ramp": [sample(0, "aaaa")],
        "window": [sample(i % 2, fp) for i, fp in enumerate(window_fps)],
        "closed": [[i % 2, 0.0, 0.0, 10.0 * i, 0, "aaaa" if i % 2 == 0 else "bbbb",
                    5.0, 0.25, 0] for i in range(20)],
        "attempts": [[0, 0.5, True]],
        "server_cpu": [[proc, proc_later]],
        "clk_tck": 100,
        "setup_s": [0.5, 0.4, 0.6],
        "vm_hwm": "204800 kB",
        "steal": {p: [[cpu, cpu_later]] for p in metrics.PHASES},
    }


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_closest_ranks(self):
        values = [40.0, 15.0, 50.0, 35.0, 20.0]  # sorted: 15 20 35 40 50
        self.assertEqual(metrics.percentile(values, 0), 15.0)
        self.assertEqual(metrics.percentile(values, 50), 35.0)
        self.assertAlmostEqual(metrics.percentile(values, 90), 46.0)  # rank 3.6
        self.assertAlmostEqual(metrics.percentile(values, 99), 49.6)  # rank 3.96
        self.assertEqual(metrics.percentile(values, 100), 50.0)

    def test_counts_samples_beyond(self):
        values = list(range(1, 1001))  # p99 = 990.01
        self.assertEqual(metrics.beyond(values, 99), 10)

    def test_refuses_empty(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)


class TrimmedRateTest(unittest.TestCase):
    def test_drops_first_and_last_tenth(self):
        # 20 completions: a slow fill (0, 50 ms), a steady 10 ms cadence
        # from 120 to 270 ms, then a slow drain (1 s, 2 s).
        times = [0.0, 50.0] + [100.0 + 10.0 * i for i in range(2, 18)] + [1000.0, 2000.0]
        # Kept: completions 2..17, 15 intervals over 150 ms.
        self.assertAlmostEqual(metrics.trimmed_rate(times), 100.0)

    def test_order_does_not_matter(self):
        times = [100.0 + 10.0 * i for i in range(30)]
        self.assertAlmostEqual(metrics.trimmed_rate(list(reversed(times))),
                               metrics.trimmed_rate(times))

    def test_refuses_too_few(self):
        with self.assertRaises(ValueError):
            metrics.trimmed_rate([5.0, 5.0])


class StealTest(unittest.TestCase):
    BEFORE = "cpu  389394 0 17526 1051442 250 0 12457 21864 0 0"
    AFTER = "cpu  389511 0 17557 1051990 250 0 12457 21964 5 0"

    def test_parses_aggregate_line(self):
        self.assertEqual(metrics.cpu_steal_total(self.BEFORE),
                         (21864, 389394 + 17526 + 1051442 + 250 + 12457 + 21864))

    def test_steal_share_of_delta(self):
        # user 117 + system 31 + idle 548 + steal 100 = 796; guest excluded.
        self.assertAlmostEqual(metrics.steal_pct([(self.BEFORE, self.AFTER)]),
                               100.0 * 100 / 796)

    def test_sums_stretches_of_a_phase(self):
        same = (self.BEFORE, self.BEFORE)
        self.assertAlmostEqual(metrics.steal_pct([same, (self.BEFORE, self.AFTER)]),
                               100.0 * 100 / 796)

    def test_refuses_per_cpu_line(self):
        with self.assertRaises(ValueError):
            metrics.cpu_steal_total("cpu0 1 2 3 4 5 6 7 8 9 10")


class ErrorRateTest(unittest.TestCase):
    def test_clean_run_has_no_failures(self):
        raw = fixture_run(["aaaa", "bbbb"] * 10)
        self.assertEqual(metrics.failures(raw), (0, 2 + 1 + 20 + 20, 0))
        self.assertEqual(metrics.end_to_end(raw)["error_rate"], 0.0)

    def test_one_wrong_fingerprint_fails(self):
        fps = ["aaaa", "bbbb"] * 10
        fps[7] = "0bad"
        raw = fixture_run(fps)
        failed, attempted, mismatches = metrics.failures(raw)
        self.assertEqual((failed, mismatches), (1, 1))
        self.assertGreater(metrics.end_to_end(raw)["error_rate"], 0.0)

    def test_error_frames_and_unanswered_fail(self):
        raw = fixture_run(["aaaa", "bbbb"] * 10)
        raw["window"][0][metrics.ERROR] = 4  # kAdmissionRejected
        raw["window"][1][metrics.ERROR] = -1  # never answered
        failed, _, mismatches = metrics.failures(raw)
        self.assertEqual((failed, mismatches), (2, 0))

    def test_cpu_per_request_from_process_ticks(self):
        raw = fixture_run(["aaaa", "bbbb"] * 10)
        # 60 + 20 ticks at 100 Hz over 20 completions.
        self.assertAlmostEqual(metrics.end_to_end(raw)["cpu_ms_per_req"], 40.0)


class SelfTimeTest(unittest.TestCase):
    def test_subtracts_children(self):
        spans = [["request", 0.0, 10.0, -1, 1, 1],
                 ["net.decode", 1.0, 2.0, 0, 1, 1],
                 ["service.result_cache", 2.0, 9.0, 0, 1, 1],
                 ["runtime.execute", 3.0, 8.0, 2, 1, 1]]
        self.assertEqual(metrics.self_times(spans), [2.0, 1.0, 2.0, 5.0])


if __name__ == "__main__":
    unittest.main()
