"""Tests for FigureSeries CSV export, the CLI --csv flag, and smooth
weighted round-robin routing in the simulator."""

from __future__ import annotations

import numpy as np

from repro.core.server import BladeServerGroup
from repro.experiments.cli import main
from repro.experiments import run_experiment
from repro.runtime.router import SmoothWeightedRoundRobinRouter
from repro.sim.engine import GroupSimulation, SimulationConfig


class TestFigureCsv:
    def test_round_trip(self):
        fig = run_experiment("fig12", points=3)
        text = fig.to_csv()
        lines = text.strip().split("\n")
        assert lines[0].split(",")[0] == "lambda_prime"
        assert len(lines) == 4  # header + 3 grid rows
        # Values parse back to the stored array.
        parsed = np.array(
            [[float(c) for c in line.split(",")] for line in lines[1:]]
        )
        assert np.allclose(parsed[:, 0], fig.rates, rtol=1e-9)
        assert np.allclose(parsed[:, 1:], fig.values.T, rtol=1e-9)

    def test_commas_in_labels_sanitized(self):
        from repro.analysis.figures import FigureSeries
        from repro.core.response import Discipline

        fig = FigureSeries(
            figure_id="x",
            discipline=Discipline.FCFS,
            rates=np.array([1.0]),
            labels=("a,b",),
            values=np.array([[2.0]]),
        )
        header = fig.to_csv().split("\n")[0]
        assert header == "lambda_prime,a;b"

    def test_cli_writes_files(self, tmp_path, capsys):
        assert main(["fig14", "--points", "3", "--csv", str(tmp_path)]) == 0
        out = (tmp_path / "fig14.csv").read_text()
        assert out.startswith("lambda_prime,")
        capsys.readouterr()  # drain

    def test_cli_csv_skips_tables(self, tmp_path):
        assert main(["table1", "--csv", str(tmp_path)]) == 0
        assert not (tmp_path / "table1.csv").exists()


class TestWeightedRoundRobin:
    def test_smoother_than_bernoulli_in_simulation(self):
        # Deterministic spacing reduces generic waiting vs. the
        # engine's default Bernoulli (alias-table) split at the same rates.
        group = BladeServerGroup.from_arrays([2, 2], [1.0, 1.0])
        lam = 0.8 * group.max_generic_rate
        config = SimulationConfig(
            total_generic_rate=lam,
            fractions=(0.5, 0.5),
            horizon=8_000.0,
            warmup=800.0,
            seed=12,
        )
        bern = GroupSimulation(group, config).run()
        wrr = GroupSimulation(
            group, config, dispatcher=SmoothWeightedRoundRobinRouter([0.5, 0.5])
        ).run()
        assert (
            wrr.generic_waiting_time < bern.generic_waiting_time
        )
