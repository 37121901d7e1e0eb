"""Self-tests of the benchmark's job generator and output checks.

    python3 perfbench/test_perfbench.py        (or: python3 -m pytest perfbench)
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import shutil
import tempfile
import unittest
from pathlib import Path

import env

env.pin_blas_threads()
env.use_source_tree()

import jobs  # noqa: E402
from run import Runner, p90  # noqa: E402

from qlimit import cli  # noqa: E402


def _short_evolve(beta: float) -> jobs.Job:
    return next(j for j in jobs.sweep_jobs(5)
                if j.kind == "evolve" and j.config["beta"] == beta)


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        jobs.SCRATCH.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(dir=jobs.SCRATCH, prefix="selftest-"))
        self.reference = jobs.load_reference()

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _run(self, job: jobs.Job) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(cli.main(jobs.command(job, self.workdir)), 0)
        return out.getvalue()

    def _edit(self, path: Path, row: int | None, **scale: float) -> None:
        """Scale columns of one data row (None: the row of largest prob)."""
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        if row is None:
            col = rows[0].index("prob")
            row = max(range(1, len(rows)), key=lambda i: float(rows[i][col]))
        for column, factor in scale.items():
            col = rows[0].index(column)
            rows[row][col] = repr(float(rows[row][col]) * factor)
        path.write_text("\n".join(",".join(r) for r in rows) + "\n")

    def test_sweep_job_list_is_fixed_by_the_seed(self):
        first = list(itertools.islice(jobs.sweep_jobs(7), 200))
        again = list(itertools.islice(jobs.sweep_jobs(7), 200))
        other = list(itertools.islice(jobs.sweep_jobs(8), 200))
        self.assertEqual(first, again)
        self.assertNotEqual(first, other)
        kinds = {j.kind for j in first}
        self.assertEqual(kinds, {"evolve", "gaussian", "operators"})
        self.assertTrue(any(j.config["beta"] == 0.0 for j in first if j.config))

    def test_perturbed_amplitude_is_flagged(self):
        job = _short_evolve(beta=0.1)
        stdout = self._run(job)
        jobs.check_output(job, self.workdir, stdout, self.reference)
        snapshot = self.workdir / "out" / "snapshot_t30.csv"
        original = snapshot.read_text()
        self._edit(snapshot, None, re=1 + 1e-6)
        with self.assertRaisesRegex(jobs.OutputError, "prob column"):
            jobs.check_output(job, self.workdir, stdout, self.reference)
        # the same amplitude scaled with a consistent prob breaks normalization
        snapshot.write_text(original)
        self._edit(snapshot, None, re=1 + 1e-6, im=1 + 1e-6, prob=(1 + 1e-6) ** 2)
        with self.assertRaisesRegex(jobs.OutputError, "sum to"):
            jobs.check_output(job, self.workdir, stdout, self.reference)

    def test_free_run_is_checked_against_the_exact_propagator(self):
        job = _short_evolve(beta=0.0)
        stdout = self._run(job)
        jobs.check_output(job, self.workdir, stdout, self.reference)
        # turning the real centre amplitude of the opening state into an
        # imaginary one keeps every probability and mean, so only the
        # oracle sees it
        snapshot = self.workdir / "out" / "snapshot_t0.csv"
        rows = [line.split(",") for line in snapshot.read_text().splitlines()]
        centre = next(r for r in rows[1:] if r[1] == "0")
        centre[2], centre[3] = centre[3], centre[2]
        snapshot.write_text("\n".join(",".join(r) for r in rows) + "\n")
        with self.assertRaisesRegex(jobs.OutputError, "exact propagator"):
            jobs.check_output(job, self.workdir, stdout, self.reference)

    def test_perturbed_operator_is_flagged(self):
        job = jobs.Job("operators", ("operators", "--q", "5", "--which", "trend"),
                       params={"q": 5, "which": "trend"})
        stdout = self._run(job)
        jobs.check_output(job, self.workdir, stdout, self.reference)
        self._edit(self.workdir / "operators.csv", 2, **{"im[1]": 1 + 1e-6})
        with self.assertRaisesRegex(jobs.OutputError, "not Hermitian"):
            jobs.check_output(job, self.workdir, stdout, self.reference)

    def test_day_errors_match_the_stored_reference(self):
        runner = Runner(self.workdir)
        for method, expected in (("strang", 0.20314), ("magnus2", 4.4620e-5)):
            result = runner.run(jobs.day_job(method))
            self.assertIsNone(result.error)
            self.assertAlmostEqual(result.info["prob_err"], expected, delta=5e-5 * expected)

    def test_crashing_job_counts_as_failed(self):
        # kinetic_operator at q = 120 fails its own Hermitian check with an
        # uncaught ValueError; the runner must record it and carry on.
        job = jobs.Job("operators", ("operators", "--q", "120", "--which", "kinetic"),
                       params={"q": 120, "which": "kinetic", "mu": 1.0})
        result = Runner(self.workdir).run(job)
        self.assertIn("uncaught ValueError", result.error)
        self.assertEqual(result.steps, 0)

    def test_p90_interpolates_between_samples(self):
        self.assertAlmostEqual(p90([float(i) for i in range(101)]), 90.0)
        self.assertAlmostEqual(p90([1.0, 3.0, 2.0]), 2.8)
        self.assertEqual(p90([4.0]), 4.0)

if __name__ == "__main__":
    unittest.main()
