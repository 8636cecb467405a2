"""Tests of the benchmark's own code (no build, no simulation).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import host  # noqa: E402
import layers  # noqa: E402
import outputs  # noqa: E402
import summarize  # noqa: E402
from workloads import REFERENCE, WORKLOADS  # noqa: E402

# A real stat line's fields after the name: state (field 3) onwards.
STAT_TAIL = "S 1 1 1 0 -1 4194560 100 0 0 0 7 3 0 0 20 0 33 0 1000 2000000 512 18446744073709551615"


class ProcParsing(unittest.TestCase):
    def test_plain_name(self):
        stat = host.parse_proc_stat(f"4242 (figures) {STAT_TAIL}\n")
        self.assertEqual(stat["pid"], 4242)
        self.assertEqual(stat["comm"], "figures")
        self.assertEqual(stat["num_threads"], 33)

    def test_names_with_spaces_and_parentheses(self):
        for name in ("my prog", "a) b", ") (", "x)", "((", "tab\tname", "1 2 3 4 5"):
            stat = host.parse_proc_stat(f"7 ({name}) {STAT_TAIL}")
            self.assertIsNotNone(stat, name)
            self.assertEqual(stat["comm"], name)
            self.assertEqual(stat["num_threads"], 33, name)

    def test_malformed_stat_is_none(self):
        for text in ("", "no parens here", "7 (short) S 1 2", "(x) " + STAT_TAIL, "7 (x) " + STAT_TAIL.replace(" 33 ", " many ")):
            self.assertIsNone(host.parse_proc_stat(text), text)

    def test_status_fields_match_whole_keys(self):
        text = "Name:\tVmHWM: 99 kB\nVmPeak:\t  9000 kB\nVmHWM:\t   13956 kB\nThreads:\t33\n"
        self.assertEqual(host.parse_proc_status_kb(text, "VmHWM"), 13956)
        self.assertIsNone(host.parse_proc_status_kb("Name:\tx\n", "VmHWM"))
        # A zombie's status has no memory lines at all.
        self.assertIsNone(host.parse_proc_status_kb("Name:\tx\nState:\tZ (zombie)\n", "VmHWM"))

    def test_cpuinfo_model(self):
        text = "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Xeon: v2\n\nmodel name\t: other\n"
        self.assertEqual(host.parse_cpuinfo_model(text), "Xeon: v2")
        self.assertIsNone(host.parse_cpuinfo_model("processor\t: 0\n"))

    def test_own_process_reads(self):
        import os

        stat = host.read_proc_stat(os.getpid())
        self.assertIsNotNone(stat)
        self.assertGreaterEqual(stat["num_threads"], 1)
        self.assertGreater(host.read_proc_status_kb(os.getpid(), "VmHWM"), 0)


def reference_texts(name):
    d = REFERENCE / name
    return (d / "stdout.txt").read_text(), (d / "values.csv").read_text(), (d / "telemetry.sha256").read_text()


class ReferenceGate(unittest.TestCase):
    """A perturbed output (or reference) yields exactly the failed points."""

    def setUp(self):
        self.w = WORKLOADS["mesh-serial"]
        self.ref = outputs.read_reference(REFERENCE / self.w.name)
        self.stdout, self.csv, _ = reference_texts(self.w.name)

    def failed(self, stdout=None, csv=None, exit_code=0, ref=None):
        out = outputs.Outputs(
            self.stdout if stdout is None else stdout, self.csv if csv is None else csv, exit_code=exit_code
        )
        return outputs.failed_points(out, ref or self.ref, self.w.points)

    def test_every_workload_reference_is_complete(self):
        for w in WORKLOADS.values():
            ref = outputs.read_reference(REFERENCE / w.name)
            self.assertEqual(len(ref.cells), w.points, w.name)
            self.assertEqual(len(ref.rows), w.points, w.name)
            self.assertEqual(len(ref.telemetry), w.points, w.name)
            self.assertEqual(outputs.failed_points(ref, ref, w.points), set(), w.name)

    def test_reference_matches_itself(self):
        self.assertEqual(self.failed(), set())

    def test_changed_cell_fails_that_point(self):
        line = next(ln for ln in self.stdout.splitlines() if ln.strip().startswith("8 "))
        cells = line.split()
        bumped = line.replace(cells[1], "99999.99", 1)
        failed = self.failed(stdout=self.stdout.replace(line, bumped, 1))
        self.assertEqual(failed, {("F7", "target", "8")})

    def test_failed_cell_fails_that_point(self):
        line = next(ln for ln in self.stdout.splitlines() if ln.strip().startswith("16 "))
        value = line.split()[1]
        failed = self.failed(stdout=self.stdout.replace(line, line.replace(value, "FAILED".rjust(len(value)), 1), 1))
        self.assertIn(("F7", "target", "16"), failed)

    def test_changed_csv_value_fails_that_point(self):
        row = "F13,fft,mesh,ExecTime,4,logp,"
        start = self.csv.index(row)
        end = self.csv.index("\n", start)
        perturbed = self.csv[:start] + row + "1.5," + self.csv[end:]
        self.assertEqual(self.failed(csv=perturbed), {("F13", "logp", "4")})

    def test_csv_failure_reason_fails_that_point(self):
        row_start = self.csv.index("F17,cg,mesh,ExecTime,32,clogp,")
        end = self.csv.index("\n", row_start)
        row = self.csv[row_start:end]
        bad = row.rsplit(",", 2)[0] + ",FAILED,verification failed: wrong sum"
        out = outputs.Outputs(csv=self.csv.replace(row, bad))
        self.assertEqual(outputs.own_failures(out), {("F17", "clogp", "32")})

    def test_changed_title_fails_the_whole_figure(self):
        title = next(ln for ln in self.stdout.splitlines() if ln.startswith("F11:"))
        failed = self.failed(stdout=self.stdout.replace(title, title + " (edited)"))
        self.assertEqual(len(failed), 10)
        self.assertTrue(all(k[0] == "F11" for k in failed))

    def test_perturbed_reference_yields_failed_points(self):
        perturbed = outputs.read_reference(REFERENCE / self.w.name)
        key = ("F7", "clogp", "2")
        perturbed.cells[key] = "0.00"
        first = next(iter(sorted(perturbed.telemetry)))
        n, sha, outcome = perturbed.telemetry[first]
        perturbed.telemetry[first] = (n + 1, sha, outcome)
        out = outputs.Outputs(self.stdout, self.csv, "")
        out.telemetry = dict(self.ref.telemetry)
        self.assertEqual(outputs.failed_points(out, perturbed, self.w.points), {key, first})

    def test_missing_points_are_counted(self):
        lines = self.csv.splitlines(keepends=True)
        failed = outputs.failed_points(outputs.Outputs(csv="".join(lines[:-3])), self.ref, self.w.points)
        self.assertEqual(len(failed), 3)

    def test_crashed_pass_fails_every_point(self):
        self.assertEqual(len(self.failed(exit_code=101)), self.w.points)
        self.assertEqual(len(outputs.failed_points(outputs.Outputs("", "", exit_code=-9), None, 50)), 50)

    def test_missing_telemetry_fails_every_point(self):
        out = outputs.Outputs(self.stdout, self.csv, "")
        self.assertEqual(len(outputs.failed_points(out, self.ref, self.w.points)), self.w.points)

    def test_unparsable_telemetry_line_fails(self):
        tel = outputs.telemetry_points('{"v":1,"kind":"summary","figure":"F1","machine":"target","procs":2,"outcome":"ok"}\nnot json\n')
        self.assertEqual(len(outputs.own_failures(outputs.Outputs(telemetry="not json\n"))), 1)
        self.assertEqual(tel[("F1", "target", "2")][2], "ok")


class Parsing(unittest.TestCase):
    def test_cli_busy(self):
        text = "F1: swept in 1.0s (jobs=2)\ntotal: 4 figure(s), 60 point(s), 6.0s simulated in 3.1s wall (1.9x, jobs=2)\n"
        self.assertAlmostEqual(layers.cli_busy_s(text), 6.0)
        self.assertAlmostEqual(layers.cli_busy_s("total: 1 figure(s), 5 point(s), 812.5ms simulated in 1.0s wall"), 0.8125)
        self.assertAlmostEqual(layers.cli_busy_s("total: 6 figure(s), 110 point(s), 0.0ns simulated in 4.4ms wall"), 0.0)
        self.assertIsNone(layers.cli_busy_s("nothing"))

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(summarize.tail_percentile(list(range(10))))
        q, v = summarize.tail_percentile(list(range(1, 21)))
        self.assertEqual(q, 50)
        self.assertEqual(sum(1 for x in range(1, 21) if x > v), 10)

    def test_paired_overhead_keeps_each_points_fastest_run(self):
        on = iter([{"a": 5.0, "b": 2.0}, {"a": 3.0, "b": 9.0}])
        off = iter([{"a": 1.0, "b": 1.5}, {"a": 4.0, "b": 1.0}])
        overhead, on_s = layers.paired_overhead(lambda: next(on), lambda: next(off), pairs=2)
        self.assertAlmostEqual(on_s, 3.0 + 2.0)
        self.assertAlmostEqual(overhead, (3.0 + 2.0) - (1.0 + 1.0))


if __name__ == "__main__":
    unittest.main()
