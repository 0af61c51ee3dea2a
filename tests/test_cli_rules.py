"""The CLI's either-or flag groups, its path flags and usage lines, the `table`
sweep and the `simulate` output sink."""

import contextlib
import itertools
import json
import tracemalloc

import pytest

from conftest import run_cli
from livelywalk import cli

TABLE_ANGLES = (("--theta-list", "1.0"), ("--theta-grid", "0:1:2"), ("--rational-grid", "2"))


class TestEitherOrGroups:
    """Coin sources, coin angles and table angle sources are each one argparse
    group: giving two of a group, or none of a required one, is a usage error."""

    @pytest.mark.parametrize("sources", [
        *itertools.combinations(TABLE_ANGLES, 2),
        TABLE_ANGLES,
        (("--theta-list", "1"), ("--theta-grid", "0:1:q")),  # a malformed grid is not dropped
    ])
    def test_two_table_angle_sources_are_a_usage_error(self, sources):
        code, out, err = run_cli(("table", "--family", "X", *itertools.chain(*sources),
                                   "--n-list", "3", "--methods", "spectral"))
        assert code == 2
        assert out == ""
        assert "not allowed with argument" in err

    @pytest.mark.parametrize("argv, message", [
        (("coin", "--perm", "P2", "--grover", "P1"), "argument --grover: not allowed with argument --perm"),
        (("coin", "--family", "X", "--theta", "1", "--rational", "2"),
         "argument --rational: not allowed with argument --theta"),
        (("coin",), "one of the arguments --perm --grover --family --matrix-file is required"),
        (("table", "--family", "X", "--n-list", "3"),
         "one of the arguments --theta-list --theta-grid --rational-grid is required"),
        (("coin", "--family", "X"), "--family needs one of --theta, --theta-frac, --rational"),
        # the state flags are checked before the coin and the spec
        (("simulate", "--perm", "P1", "--n", "1", "--start", "0", "--tmax", "2"),
         "simulate needs --start and --coinstate, or --state-file"),
        (("simulate", "--perm", "P1", "--n", "3", "--a", "5", "--state-file", "x.json", "--start", "0", "--tmax", "2"),
         "give either --start/--coinstate or --state-file, not both"),
    ])
    def test_group_messages(self, argv, message):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert message in err


class TestEmptyPaths:
    """An empty path is read like any path: it names no file, so the call
    fails as a missing file does, with exit 1 and an error line."""

    @pytest.mark.parametrize("argv", [
        ("coin", "--matrix-file", ""),
        ("simulate", "--perm", "P1", "--n", "3", "--tmax", "2", "--state-file", ""),
        ("period", "--perm", "P1", "--n", "3", "--output", ""),
    ])
    def test_empty_path_is_a_missing_file(self, argv):
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "No such file or directory" in err


class TestHandlerUsageLines:
    """A usage error that a command's handler finds prints that command's
    usage line, as argparse's own errors for the command do."""

    @pytest.mark.parametrize("argv, message", [
        (("coin", "--family", "X"), "--family needs one of --theta, --theta-frac, --rational"),
        (("period", "--perm", "P1", "--n", "3", "--methods", "foo"), "unknown method 'foo'"),
        (("simulate", "--perm", "P1", "--n", "3", "--tmax", "2", "--start", "0"),
         "simulate needs --start and --coinstate, or --state-file"),
        (("table", "--family", "X", "--theta-list", "1", "--n-list", "q"), "cannot parse n list 'q'"),
        (("verify", "--suite", "period-consistency", "--samples", "2"), "--samples is not read by"),
    ])
    def test_usage_line_of_the_command(self, argv, message):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: livelywalk {argv[0]} [-h]")
        assert f"livelywalk {argv[0]}: error: {message}" in err


class TestTableSweep:
    def test_nan_angle_is_a_domain_error_in_an_empty_sweep(self):
        # each coin is built once, before the sweep, even when no n is named
        code, out, err = run_cli(("table", "--family", "X", "--theta-list", "nan", "--n-list", ","))
        assert code == 1
        assert out == ""
        assert err.startswith("error: theta must be finite")

    @pytest.mark.parametrize("theta_list", ["", ","])
    def test_empty_theta_list_is_an_empty_sweep(self, theta_list):
        assert run_cli(("table", "--family", "X", "--theta-list", theta_list, "--n-list", "3")) == \
            (0, "[]\n", "")


class _RecordingSink:
    """A stdout stand-in that counts the lines written, and the most lines in
    one write, but keeps no text."""

    def __init__(self):
        self.lines = self.most_lines = 0

    def write(self, text):
        self.lines += text.count("\n")
        self.most_lines = max(self.most_lines, text.count("\n"))
        return len(text)

    def flush(self):
        pass


N = 256
SIMULATE = ("simulate", "--grover", "P1", "--n", str(N), "--a", "3", "--start", "7", "--coinstate", "2")


class TestSimulateStreams:
    """simulate writes each time step as it goes, so its memory does not grow with --tmax."""

    @staticmethod
    def _traced(tmax):
        """(exit code, tracemalloc peak in bytes, the sink)."""
        sink = _RecordingSink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main([*SIMULATE, "--tmax", str(tmax)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return code, peak, sink

    def test_peak_memory_flat_in_tmax(self):
        self._traced(400)  # build the parser and warm numpy up outside the comparison
        peaks = {}
        for tmax in (40, 400, 40, 400):
            code, peak, sink = self._traced(tmax)
            assert code == 0
            assert sink.lines == 1 + N * (tmax + 1)
            assert sink.most_lines <= N  # no write holds more than one time step
            peaks[tmax] = min(peak, peaks.get(tmax, peak))  # the lower of two runs: no one-off caches
        assert peaks[400] <= 1.25 * peaks[40]

    def test_output_file_matches_stdout(self, tmp_path):
        path = tmp_path / "walk.csv"
        argv = (*SIMULATE, "--tmax", "9")
        assert run_cli((*argv, "--output", str(path))) == (0, "", "")
        code, out, _ = run_cli(argv)
        assert code == 0
        assert path.read_text() == out

    @pytest.mark.parametrize("tail", [
        ("--start", "0", "--coinstate", "0", "--tmax", "-1"),
        ("--state-file", "{state}", "--tmax", "3"),
    ])
    def test_failed_call_leaves_output_intact(self, tmp_path, tail):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"amplitudes": [[1.0, 0.0]] * 9}))  # |psi|^2 = 9
        path = tmp_path / "walk.csv"
        path.write_text("kept\n")
        argv = ("simulate", "--perm", "P1", "--n", "3", *(arg.format(state=state) for arg in tail),
                "--output", str(path))
        assert run_cli(argv)[:2] == (1, "")
        assert path.read_text() == "kept\n"
