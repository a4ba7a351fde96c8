"""Tests for the experiment-runner CLI."""

import json
import os

import pytest

from thompsonlab import cli
from thompsonlab.cli import main, validate, build_parser
from thompsonlab.reports import render_rows, write_report


class TestReports:
    def test_csv_round(self):
        rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": 1.25}]
        text = render_rows(rows, "csv")
        assert text.splitlines()[0] == "a,b"
        assert "1,0.5" in text

    def test_json_mirror(self):
        rows = [{"a": 1, "w": (0.0, 1.0)}]
        data = json.loads(render_rows(rows, "json"))
        assert data == [{"a": 1, "w": [0.0, 1.0]}]

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_rows([], "xml")

    def test_atomic_write(self, tmp_path):
        path = write_report([{"x": 1}], str(tmp_path / "r.csv"), "csv")
        assert os.path.exists(path)
        assert not [f for f in os.listdir(tmp_path) if ".tmp" in f]


class TestValidation:
    def parse(self, argv):
        return build_parser().parse_args(argv)

    def test_missing_seed_flagged(self):
        args = self.parse(["wiener", "moments", "--samples", "10"])
        assert any("seed" in p for p in validate(args))

    def test_clean_config_empty_diagnostics(self):
        args = self.parse(["count", "--nmax", "10"])
        assert validate(args) == []

    def test_validate_flag_exit_codes(self, capsys):
        assert main(["glue", "--validate", "--seed", "1"]) == 0
        assert main(["glue", "--validate"]) == 2
        assert "seed" in capsys.readouterr().out

    def test_bad_parameter_rejected_at_run(self, tmp_path):
        assert main(["wiener", "moments", "--seed", "1",
                     "--grid", "100", "--out", str(tmp_path)]) == 2


class TestRuns:
    def test_count_writes_report(self, tmp_path, capsys):
        out = str(tmp_path / "counting_audit.csv")
        assert main(["count", "--nmax", "8", "--kmax", "2",
                     "--out", out]) == 0
        header = open(out).readline()
        assert header.startswith("n,k,a_recurrence,a_series")

    def test_orbits_json(self, tmp_path):
        assert main(["orbits", "--n", "3", "--k", "2", "--format", "json",
                     "--out", str(tmp_path)]) == 0
        rows = json.load(open(tmp_path / "orbit_audit.json"))
        assert rows[0]["match"] is True

    def test_folner_report(self, tmp_path):
        assert main(["folner", "--m", "0", "--l", "2", "--n", "0",
                     "--out", str(tmp_path)]) == 0
        text = open(tmp_path / "folner_ratios.csv").read()
        assert "f1" in text and "f2" in text

    def test_budget_exit_code(self, tmp_path):
        assert main(["folner", "--m", "3", "--l", "4", "--n", "2",
                     "--budget", "10", "--out", str(tmp_path)]) == 3

    def test_wiener_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            d.mkdir()
            assert main(["wiener", "moments", "--l", "1", "--samples",
                         "2000", "--grid", "128", "--seed", "7",
                         "--out", str(d)]) == 0
        assert (a / "wiener_moments.csv").read_bytes() == \
            (b / "wiener_moments.csv").read_bytes()

    def test_lemma3_report(self, tmp_path):
        assert main(["wiener", "lemma3", "--seed", "3",
                     "--out", str(tmp_path)]) == 0
        lines = open(tmp_path / "lemma3.csv").read().splitlines()
        assert lines[0] == "g,n,abs_gap,slope,seed"
        assert len(lines) == 21

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("samples=500\nseed=9\ngrid=128\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        out1.mkdir(); out2.mkdir()
        assert main(["wiener", "moments", "--l", "1", "--config", str(cfg),
                     "--out", str(out1)]) == 0
        # explicit --seed wins over the config seed
        assert main(["wiener", "moments", "--l", "1", "--config", str(cfg),
                     "--seed", "9", "--out", str(out2)]) == 0
        assert (out1 / "wiener_moments.csv").read_bytes() == \
            (out2 / "wiener_moments.csv").read_bytes()

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("wibble=3\n")
        assert main(["count", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("samples, wiener_samples",
                             [(None, 5000), (700, 700)])
    def test_audit_all_stage_settings(self, monkeypatch, samples,
                                      wiener_samples):
        seen = {}
        for name in ("count", "folner", "smooth", "wiener", "glue"):
            monkeypatch.setattr(cli, f"cmd_{name}",
                                lambda a, name=name: seen.setdefault(name, a))
        argv = ["audit-all", "--seed", "11", "--grid", "512"]
        if samples is not None:
            argv += ["--samples", str(samples)]
        args = build_parser().parse_args(argv)
        before = dict(vars(args))
        cli.cmd_audit_all(args)
        assert vars(args) == before
        # a namespace of its own for every stage
        assert len({id(a) for a in (args, *seen.values())}) == 6
        assert (seen["count"].nmax, seen["count"].kmax) == (20, 4)
        assert (seen["folner"].m, seen["folner"].l, seen["folner"].n) == \
            (0, None, None)
        w = seen["wiener"]
        assert (w.experiment, w.l, w.n, w.samples) == \
            ("all", None, None, wiener_samples)
        assert seen["glue"].samples == 30
        for a in seen.values():
            assert (a.seed, a.grid, a.out) == (11, 512, None)
