"""Tests of the benchmark itself (not of leibnizalg).

    python3 -m unittest discover -s bench -p 'test_*.py'

They show that inputs are a function of the seed, that the tables the
package builds are checked against the oracle's formulas, that the oracle
accepts the program's real output and rejects corrupted output and wrong
exit codes, and that tracing leaves the package as it found it.
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from unittest import mock
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

LIB = run.import_package()


def _scratch():
    run.TMP.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.TMP)


def _real_outputs(wl):
    with _scratch() as tmp:
        directory = Path(tmp)
        wl.rebuild(directory)
        _, outputs = tracing.replay(LIB, wl.jobs, directory)
    return outputs


class InputsAreSeeded(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            a, b = workloads.build(name, 7, LIB), workloads.build(name, 7, LIB)
            self.assertEqual(a.files, b.files, name)
            self.assertEqual([j.argv for j in a.jobs], [j.argv for j in b.jobs], name)

    def test_other_seed_other_inputs_same_shape(self):
        for name in workloads.WORKLOADS:
            a, b = workloads.build(name, 7, LIB), workloads.build(name, 8, LIB)
            self.assertNotEqual(a.files, b.files, name)
            self.assertEqual(len(a.jobs), len(b.jobs), name)


class InputsAreChecked(unittest.TestCase):
    def test_real_inputs_pass(self):
        for name in workloads.WORKLOADS:
            wl = workloads.build(name, 5, LIB)
            self.assertGreater(wl.input_checks, 0, name)
            self.assertEqual(wl.input_errors, [], name)
            with _scratch() as tmp:
                wl.rebuild(Path(tmp))
                written = {f.name: f.read_text(encoding="utf-8") for f in Path(tmp).iterdir()}
            self.assertEqual(wl.input_errors, [], name)
            self.assertEqual(written, wl.files, name)

    def test_wrong_constructor_is_caught(self):
        real = LIB.constructions.make_module_extension
        with mock.patch.object(LIB.constructions, "make_module_extension", lambda m, a: real(m, a + 1)):
            wl = workloads.build("constant-large", 5, LIB)
        self.assertEqual(len(wl.input_errors), 3)


class OracleCatchesWrongOutput(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cases = []
        for name in ("cli-small", "parametric"):
            wl = workloads.build(name, 3, LIB)
            cls.cases += list(zip(wl.jobs, _real_outputs(wl)))

    def test_real_output_passes(self):
        for job, (code, out, err) in self.cases:
            self.assertIsNone(job.check(code, out, err), job.argv)

    def test_wrong_exit_code_fails(self):
        for job, (code, out, err) in self.cases:
            self.assertIsNotNone(job.check(code + 1, out, err), job.argv)

    def test_corrupted_stdout_fails(self):
        for job, (code, out, err) in self.cases:
            self.assertIsNotNone(job.check(code, out + "0\n", err), job.argv)
            if out:
                self.assertIsNotNone(job.check(code, "", err), job.argv)

    def test_targeted_corruptions_fail(self):
        edits = {
            ("constraints", "pre.alg"): ("l - a*l", "l + a*l"),
            ("profile", "L101.alg", "L011.alg", "L001.alg", "L002.alg"): ("INCONCLUSIVE", "DISTINGUISHED"),
            ("ideal", "L101.alg"): ("x2", "x1"),
            ("construct", "sl2"): ("[e,f] = h", "[e,f] = 2*h"),
            ("check", "L100_forced.alg"): ("residual: x0", "residual: x1"),
        }
        seen = set()
        for job, (code, out, err) in self.cases:
            if job.argv in edits:
                old, new = edits[job.argv]
                self.assertIn(old, out)
                self.assertIsNotNone(job.check(code, out.replace(old, new, 1), err), job.argv)
                seen.add(job.argv)
            if job.argv[0] == "change-basis" and job.argv[1].endswith(".alg") and "= 2*" in out:
                self.assertIsNotNone(job.check(code, out.replace("= 2*", "= 3*", 1), err), job.argv)
            if job.argv[0] == "constraints" and job.argv[1].startswith("gen"):
                self.assertIsNotNone(job.check(code, "1 + " + out, err), job.argv)
            if code == 2:
                self.assertIsNotNone(job.check(code, out, "Traceback (most recent call last):\n" + err), job.argv)
        self.assertEqual(seen, set(edits))


class TailPercentile(unittest.TestCase):
    def test_ten_beyond(self):
        self.assertEqual(run.percentile_tail([float(i) for i in range(100)]), (90, 89.0))
        pct, value = run.percentile_tail([float(i) for i in range(42)])
        self.assertEqual(pct, 76)
        self.assertEqual(sum(1 for i in range(42) if i > value), 10)


class TracingRestores(unittest.TestCase):
    def test_wrappers_are_removed(self):
        table = LIB.core.AlgebraTable
        before_table = dict(table.__dict__)
        before_poly = dict(LIB.scalars.Poly.__dict__)
        main, parse = LIB.cli.main, LIB.cli.parse_algebra
        with tracing.SpanTracer().installed(LIB):
            self.assertIsNot(LIB.cli.main, main)
            self.assertIsNot(LIB.cli.parse_algebra, parse)
        with tracing.CountTracer().installed(LIB):
            self.assertIsNot(LIB.scalars.Poly.__dict__["__radd__"], before_poly["__radd__"])
        self.assertIs(LIB.cli.main, main)
        self.assertIs(LIB.cli.parse_algebra, parse)
        self.assertEqual(dict(table.__dict__), before_table)
        self.assertEqual(dict(LIB.scalars.Poly.__dict__), before_poly)


if __name__ == "__main__":
    unittest.main()
