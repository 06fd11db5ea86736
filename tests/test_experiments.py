"""Unit tests for the experiment registry and CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.figures import FigureSeries
from repro.analysis.tables import PaperTable
from repro.core.exceptions import ParameterError
from repro.experiments import (
    available_experiments,
    get_experiment,
    run_experiment,
)
from repro.experiments.cli import main


class TestRegistry:
    def test_all_paper_experiments_registered(self):
        ids = set(available_experiments())
        assert {"table1", "table2"} | {f"fig{i}" for i in range(4, 16)} <= ids

    def test_studies_registered(self):
        ids = set(available_experiments())
        assert {
            "policy-gap",
            "solver-agreement",
            "robust-service-law",
            "robust-preload",
            "sim-validation",
            "sensitivity",
        } <= ids
        for sid in ("policy-gap", "solver-agreement"):
            assert get_experiment(sid).kind == "study"

    def test_table_experiments(self):
        t1 = run_experiment("table1")
        assert isinstance(t1, PaperTable)
        assert t1.discipline.value == "fcfs"
        t2 = run_experiment("table2")
        assert t2.discipline.value == "priority"

    def test_figure_disciplines_alternate(self):
        for i in range(4, 16):
            exp = get_experiment(f"fig{i}")
            expected = "no priority" if i % 2 == 0 else "priority"
            assert expected in exp.description

    @pytest.mark.parametrize("fid", ["fig4", "fig9", "fig14"])
    def test_figure_runs(self, fid):
        fig = run_experiment(fid, points=3)
        assert isinstance(fig, FigureSeries)
        assert fig.values.shape == (5, 3)
        assert fig.figure_id == fid

    def test_unknown_experiment(self):
        with pytest.raises(ParameterError):
            get_experiment("fig99")

    def test_case_insensitive(self):
        assert get_experiment("TABLE1").experiment_id == "table1"


class TestPaperObservations:
    """The qualitative claims of Section 5 must hold in our reproduction."""

    def test_fig4_bigger_groups_faster(self):
        fig = run_experiment("fig4", points=4)
        # At the highest common load, Group 5 (m=63) beats Group 1 (m=49).
        assert fig.values[4, -1] < fig.values[0, -1]

    def test_fig6_faster_speeds_faster(self):
        fig = run_experiment("fig6", points=4)
        # s=1.9 curve below s=1.5 curve at high load.
        assert fig.values[4, -1] < fig.values[0, -1]

    def test_fig8_smaller_requirement_faster(self):
        fig = run_experiment("fig8", points=4)
        # rbar=0.8 curve below rbar=1.2 curve everywhere.
        assert (fig.values[0] < fig.values[4]).all()

    def test_fig10_lighter_preload_faster(self):
        fig = run_experiment("fig10", points=4)
        # y=0.20 below y=0.40 everywhere.
        assert (fig.values[0] < fig.values[4]).all()

    def test_fig12_heterogeneity_nearly_flat_but_ordered(self):
        fig = run_experiment("fig12", points=4)
        # Curves nearly coincide...
        spread = fig.values.max(axis=0) - fig.values.min(axis=0)
        assert (spread / fig.values.min(axis=0) < 0.25).all()
        # ...but more heterogeneous groups are (weakly) faster.
        for j in range(fig.values.shape[1]):
            col = fig.values[:, j]
            assert (np.diff(col) >= -1e-9).all()

    def test_fig14_speed_heterogeneity_ordered(self):
        fig = run_experiment("fig14", points=4)
        for j in range(fig.values.shape[1]):
            col = fig.values[:, j]
            assert (np.diff(col) >= -1e-9).all()

    def test_priority_figures_dominate_fcfs(self):
        f4 = run_experiment("fig4", points=3)
        f5 = run_experiment("fig5", points=3)
        assert (f5.values >= f4.values - 1e-12).all()


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig15" in out

    def test_run_table(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "0.8964703" in out

    def test_run_figure_with_points(self, capsys):
        assert main(["fig12", "--points", "3"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out and "Group 5" in out

    def test_no_args_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_experiment_is_usage_error(self, capsys):
        # Every id is checked before any runs: no traceback, and Table 1
        # is not computed ahead of the bad id.
        for argv in (["nosuch"], ["table1", "nosuch"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.strip() == (
                "error: unknown experiment 'nosuch'; see --list"
            )
