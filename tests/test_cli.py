import json
import os
import subprocess
import sys

import numpy as np
import pytest

from make_golden import write_inputs
from qtrack import cli, distances, serialize
from qtrack.channels import random_channel, random_state
from qtrack.distances import WeightedSequence


@pytest.fixture
def workdir(tmp_path):
    """The golden corpus's input files: states a, b, t1, t2, "problem" (a, b onto
    t1, t2), a qubit channel "chan", and a symmetric "chain" with its "noise"."""
    return write_inputs(tmp_path)


def test_matrix_roundtrip_bit_for_bit():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    text = json.dumps(serialize.matrix_to_json(m))
    back = serialize.matrix_from_json(json.loads(text))
    assert np.array_equal(back, m)


def test_state_channel_sequence_roundtrips():
    rng = np.random.default_rng(1)
    state = random_state(3, rng)
    back = serialize.state_from_json(json.loads(json.dumps(serialize.state_to_json(state))))
    assert np.array_equal(back.mat, state.mat)
    chan = random_channel(2, rng)
    back_c = serialize.channel_from_json(
        json.loads(json.dumps(serialize.channel_to_json(chan)))
    )
    assert np.array_equal(back_c.mat, chan.mat)
    seq = WeightedSequence([(0.25, random_state(2, rng)), (0.75, random_state(2, rng))])
    back_s = serialize.sequence_from_json(
        json.loads(json.dumps(serialize.sequence_to_json(seq)))
    )
    assert np.array_equal(back_s.priorities, seq.priorities)
    for x, y in zip(back_s.states, seq.states):
        assert np.array_equal(x.mat, y.mat)


def test_kraus_channel_input():
    payload = {
        "d": 2,
        "kraus": [
            serialize.matrix_to_json(np.sqrt(0.7) * np.eye(2)),
            serialize.matrix_to_json(np.sqrt(0.3) * np.diag([1.0, -1.0])),
        ],
    }
    choi = serialize.channel_from_json(payload)
    from qtrack.channels import check_cptp

    assert check_cptp(choi)["cp"]


def test_malformed_payloads_raise_format_error():
    with pytest.raises(serialize.FormatError):
        serialize.matrix_from_json({"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]})
    with pytest.raises(serialize.FormatError):
        serialize.state_from_json({"what": 1})
    with pytest.raises(serialize.FormatError):
        serialize.state_from_json({"bloch": [2.0, 0.0, 0.0]})


def test_cli_distances(workdir, capsys):
    code = cli.main(["distances", "--measure", "F", "--a", workdir["a"], "--b", workdir["b"]])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.0 <= out["value"] <= 1.0


def test_cli_distances_bounds_csv(workdir, capsys):
    code = cli.main(["distances", "--a", workdir["a"], "--b", workdir["b"], "--bounds"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "measure,value,slack"
    rows = [line.split(",") for line in lines[1:]]
    # nine slack rows without a value, then the five values without a slack
    assert [r[0] for r in rows] == [
        "fuchs_lower", "fuchs_upper", "fn_rank_upper", "fn_lower", "fn_sqrt_lower",
        "chain_O_le_H", "chain_H_le_2D", "chain_2D_le_rootr_H", "chain_rootr_H_le_r_O",
        "F", "FN", "D", "H", "O",
    ]
    assert all(r[1] == "nan" and float(r[2]) >= -1e-9 for r in rows[:9])
    a, b = (serialize.state_from_json(serialize.load_json(workdir[k])) for k in "ab")
    values = distances.check_bounds(a, b)["values"]
    assert [r[1:] for r in rows[9:]] == [["%.10e" % values[r[0]], "nan"] for r in rows[9:]]


def test_cli_analytic_trivial_fidelity_one(workdir, tmp_path, capsys):
    code = cli.main(
        [
            "analytic",
            "--src", workdir["t1"], workdir["t2"],
            "--tgt", workdir["t1"], workdir["t2"],
            "--pi", "0.5", "0.5",
        ]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["fidelity"] - 1.0) < 1e-9


def test_cli_solve_and_bloch_output(workdir, capsys):
    code = cli.main(
        ["solve", "--problem", workdir["problem"], "--objective", "FHSavg1", "--feasible", "cptp"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cptp"]["cp"] and out["cptp"]["tp"]
    assert len(out["output_bloch"]) == 2
    # the numeric route must agree with the closed-form route
    code = cli.main(
        [
            "analytic",
            "--src", workdir["a"], workdir["b"],
            "--tgt", workdir["t1"], workdir["t2"],
        ]
    )
    analytic_out = json.loads(capsys.readouterr().out)
    assert abs(out["value"] - analytic_out["fidelity"]) <= 1e-6


def test_cli_stabilize_value(capsys):
    code = cli.main(["stabilize", "--p", "0.115", "--theta", "0.715"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["f_dif"] - 0.026) < 1e-3


def test_cli_stabilize_grid_csv(tmp_path):
    out = tmp_path / "grid.csv"
    code = cli.main(["stabilize", "--grid", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p,theta,ddr1,ddr2,sdr,dn,qc"
    assert len(lines) == 26


def test_cli_seed_reproducibility(tmp_path):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert cli.main(["scatter-bounds", "--d", "3", "--n", "20", "--seed", "9", "--out", str(out1)]) == 0
    assert cli.main(["scatter-bounds", "--d", "3", "--n", "20", "--seed", "9", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_exit_code_invalid(workdir, capsys):
    code = cli.main(["distances", "--measure", "F", "--a", "/nonexistent.json", "--b", workdir["b"]])
    assert code == 2
    # the path is named once, with the OS's reason
    err = capsys.readouterr().err
    assert err == "qtrack: invalid input: /nonexistent.json: No such file or directory\n"
    bad = workdir["dir"] / "bad.json"
    bad.write_text("{ not json")
    code = cli.main(["distances", "--measure", "F", "--a", str(bad), "--b", workdir["b"]])
    assert code == 2
    err = capsys.readouterr().err
    assert "line" in err


def _run_with_handler(monkeypatch, handler):
    """Make every parsed command call ``handler`` instead of its own."""
    parser = cli.build_parser()
    parse = parser.parse_args

    def parse_args(argv=None):
        args = parse(argv)
        args.fn = handler
        return args

    monkeypatch.setattr(parser, "parse_args", parse_args)


@pytest.mark.parametrize("out, reason", [("missing/x.csv", "No such file or directory"),
                                         (".", "Is a directory")])
def test_cli_unwritable_out_exits_2_before_the_handler_runs(out, reason, workdir, monkeypatch,
                                                            capsys):
    # an 8 x 8 sweep takes seconds, a 20 x 20 one minutes: the path is checked first
    _run_with_handler(monkeypatch, lambda args: pytest.fail("handler called"))
    path = str(workdir["dir"] / out)
    argv = ["multistep", "--task", workdir["chain"], "--seed", "0", "--sweep", "8", "--out", path]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"qtrack: invalid input: {path}: {reason}\n")


def test_cli_out_is_neither_created_nor_truncated_before_the_handler_returns(tmp_path,
                                                                            monkeypatch):
    kept, new = tmp_path / "kept.csv", tmp_path / "new.csv"
    kept.write_text("old\n")

    def handler(args):
        assert kept.read_text() == "old\n" and not new.exists()
        raise serialize.FormatError("synthetic")

    _run_with_handler(monkeypatch, handler)
    for path in (kept, new):
        assert cli.main(["clone", "--phi", "0.3", "--out", str(path)]) == 2
    assert kept.read_text() == "old\n" and not new.exists()


def test_cli_exit_code_solver_failure(workdir, monkeypatch):
    from qtrack import tracking as trk
    from qtrack.sdp import SolverError

    def boom(*args, **kwargs):
        raise SolverError("synthetic breakdown")

    monkeypatch.setattr(trk, "solve_tracking", boom)
    code = cli.main(
        ["solve", "--problem", workdir["problem"], "--objective", "FHSavg1"]
    )
    assert code == 3


def test_cli_channel_inspection(tmp_path, capsys):
    rng = np.random.default_rng(2)
    chan = random_channel(2, rng)
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(serialize.channel_to_json(chan)))
    code = cli.main(["channel", "--in", str(path)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cptp"]["cp"] and out["cptp"]["tp"]
    assert "canonical" in out


def test_cli_au_check(workdir, capsys):
    code = cli.main(
        ["au-check", "--src", workdir["t1"], workdir["t2"], "--tgt", workdir["t1"], workdir["t2"]]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["feasible"]


def test_cli_multistep_chain(workdir, capsys):
    code = cli.main(
        ["multistep", "--steps", "2", "--noise", workdir["noise"], "--task", workdir["chain"],
         "--seed", "0"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["fidelity"] > out["single_step_fidelity"]
    # every restart reaches the same fidelity to round-off; the first one keeps the tie
    assert out["seed_chain"] == "do-nothing"


def test_cli_bench(capsys):
    code = cli.main(["bench", "--d", "8", "--repeats", "2", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("measure,mean_seconds")


def test_emit_plotdata_formatting():
    rows = [{"p": 0.1, "theta": 0.2, "ddr1": 1, "ddr2": 1, "sdr": 1, "dn": 1, "qc": 1}]
    text = cli.emit_plotdata(rows, "stabilize_grid")
    assert "1.0000000000e-01" in text


def test_cli_multistep_needs_noise_or_sweep(tmp_path, capsys):
    states = [{"pi": 0.5, "bloch": [1.0, 0.0, 0.0]}, {"pi": 0.5, "bloch": [0.0, 0.0, 1.0]}]
    task = {"source": states, "target": states}
    tpath = tmp_path / "task.json"
    tpath.write_text(json.dumps(task))
    code = cli.main(["multistep", "--task", str(tpath), "--seed", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--noise" in err and "Traceback" not in err


def test_cli_solve_reports_controller_with_small_trace_error(workdir, monkeypatch, capsys):
    # TP residual 5e-10 passes check_cptp (1e-9) but the outputs miss unit
    # trace by more than a DensityMatrix accepts (1e-10)
    from qtrack import tracking as trk
    from qtrack.channels import ChoiMatrix, check_cptp

    excess = 5e-10 * np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)
    choi = ChoiMatrix(2, np.kron(np.eye(2), np.eye(2) / 2) + excess)
    report = check_cptp(choi)
    assert report["tp"] and abs(report["tp_residual"] - 5e-10) < 1e-15

    def fake_solve(tp):
        return trk.TrackingResult(choi, 0.5, None, report, None)

    monkeypatch.setattr(trk, "solve_tracking", fake_solve)
    code = cli.main(["solve", "--problem", workdir["problem"], "--objective", "FHSavg1"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cptp"]["tp_residual"] == report["tp_residual"]
    assert len(out["output_bloch"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["stabilize"],
        ["stabilize", "--p", "0.1"],
        ["compat", "--cells", "2y2", "--seed", "0"],
        ["scatter-bounds", "--d", "1", "--seed", "0"],
        ["scatter-bounds", "--d", "0", "--seed", "0"],
        # --gap-tol is not an option: the gap tolerance is sdp.GAP_TOL
        ["solve", "--problem", "p.json", "--objective", "Davg", "--gap-tol", "1e-6"],
        ["multistep", "--task", "t.json", "--seed", "0", "--sweep", "-3"],
        ["multistep", "--task", "t.json", "--seed", "0", "--sweep", "0"],
        ["multistep", "--task", "t.json", "--seed", "0", "--restarts", "-1"],
        ["multistep", "--task", "t.json", "--seed", "0", "--restarts", "0"],
        ["multistep", "--task", "t.json", "--seed", "0", "--restarts", "50"],
        ["multistep", "--task", "t.json", "--seed", "0", "--steps", "0"],
        ["multistep", "--task", "t.json", "--seed", "0", "--steps", "1"],
        ["stabilize", "--grid", "-1"],
        ["stabilize", "--grid", "0"],
        ["compat", "--samples", "0", "--seed", "0"],
        ["bench", "--repeats", "0", "--seed", "0"],
        ["bench", "--d", "1", "--seed", "0"],
        ["scatter-bounds", "--d", "2", "--n", "-1", "--seed", "0"],
        ["scatter-bounds", "--d", "2", "--n", "0", "--seed", "0"],
    ],
    ids=["stabilize-no-point", "stabilize-no-theta", "compat-bad-cell", "scatter-d1",
         "scatter-d0", "solve-negative-gap-tol", "multistep-sweep-negative",
         "multistep-sweep-0", "multistep-restarts-negative", "multistep-restarts-0",
         "multistep-restarts-50", "multistep-steps-0", "multistep-steps-1",
         "stabilize-grid-negative", "stabilize-grid-0", "compat-samples-0", "bench-repeats-0",
         "bench-d1", "scatter-n-negative", "scatter-n-0"],
)
def test_cli_bad_arguments_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "qtrack" in err and "error: " in err and "Traceback" not in err
    assert err.count("error: ") == 1 and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["clone", "--phi", "0.3", "--pi1", "1.5"],
        ["clone", "--phi", "0.3", "--pi1", "0"],
        ["analytic", "--src", "a", "b", "--tgt", "t1", "t2", "--pi", "1.5", "-0.5"],
        ["analytic", "--src", "a", "b", "--tgt", "t1", "t2", "--pi", "1", "0"],
    ],
    ids=["clone-pi1-above-1", "clone-pi1-0", "analytic-negative-pi", "analytic-pi-0"],
)
def test_cli_priorities_outside_the_open_unit_interval_exit_2(argv, workdir, capsys):
    argv = [workdir.get(arg, arg) for arg in argv]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("qtrack: invalid input: ") and err.count("\n") == 1
    assert "must lie in (0, 1)" in err and "Traceback" not in err


def test_cli_reuses_its_parser_without_leaking_state(workdir, capsys):
    # one process runs every command through the one cached parser; each run
    # must print and exit exactly as a fresh `qtrack` process does
    w = workdir
    runs = [
        ["solve", "--problem", w["problem"], "--objective", "Davg", "--feasible", "ppt"],
        ["distances", "--measure", "D", "--a", w["a"], "--b", w["b"]],
        ["stabilize", "--p", "0.115", "--theta", "0.715"],
        ["stabilize", "--grid", "2"],
        ["stabilize", "--grid", "0"],
        ["solve", "--problem", w["problem"], "--objective", "FHSavg1"],
    ]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    entry = "import sys; from qtrack.cli import main; sys.exit(main())"
    codes = []
    for argv in runs:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-c", entry, *argv], capture_output=True,
                               text=True, env=env, timeout=120)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [0, 0, 0, 0, 2, 0]


def test_module_entry_point_runs_without_warnings(capsys):
    # `python -m qtrack.cli` must not find qtrack.cli imported already by the
    # package, which warns (an error under -W error::RuntimeWarning)
    argv = ["clone", "--phi", "0.3"]
    assert cli.main(argv) == 0
    want = capsys.readouterr().out
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "qtrack.cli", *argv],
                         capture_output=True, text=True, env=env, timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (0, want, "")


_PAIR = [{"pi": 0.5, "bloch": [1.0, 0.0, 0.0]}, {"pi": 0.5, "bloch": [0.0, 0.0, 1.0]}]
# the completely depolarizing qubit channel, Choi matrix I / 2
_DEPOLARIZING = {"rows": 4, "cols": 4, "re": (0.5 * np.eye(4)).ravel().tolist(), "im": [0.0] * 16}
_CHOI_NAN = {**_DEPOLARIZING, "re": [float("nan")] + _DEPOLARIZING["re"][1:]}
_EMPTY = {"rows": 0, "cols": 0, "re": [], "im": []}
_KRAUS_I2 = {"rows": 2, "cols": 2, "re": [1.0, 0.0, 0.0, 1.0], "im": [0.0] * 4}
_RHO_HALF = {"rows": 2, "cols": 2, "re": [0.5, 0.0, 0.0, 0.5], "im": [0.0] * 4}
# entries that overflow the sums the checks take, before any check can refuse them
_RHO_INF = {**_RHO_HALF, "re": [float("inf"), 0.0, 0.0, 0.5]}
_RHO_1E308 = {**_RHO_HALF, "re": [1e308, 0.0, 0.0, 0.5]}
# a 4 x 3 matrix that holds I / 2 in its top rows
_CHOI_4X3 = {"rows": 4, "cols": 3, "re": [0.5, 0, 0, 0, 0, 0, 0, 0, 0, 0.5, 0, 0], "im": [0.0] * 12}
_QUTRIT = {"d": 3, "rho": {"rows": 3, "cols": 3, "re": (np.eye(3) / 3).ravel().tolist(),
                           "im": [0.0] * 9}}


@pytest.mark.parametrize(
    "files, argv",
    [
        ({"s": 5}, ["distances", "--measure", "F", "--a", "s", "--b", "b"]),
        ({"s": 5}, ["au-check", "--src", "s", "b", "--tgt", "t1", "t2"]),
        ({"s": {"bloch": ["a", 0, 0]}}, ["distances", "--measure", "F", "--a", "s", "--b", "b"]),
        ({"s": {"bloch": [float("nan"), 0, 0]}},
         ["distances", "--measure", "F", "--a", "s", "--b", "b"]),
        ({"s": {"rho": {"rows": 2, "cols": 2, "re": [0.5, float("nan"), float("nan"), 0.5],
                        "im": [0, 0, 0, 0]}}},
         ["distances", "--measure", "F", "--a", "s", "--b", "b"]),
        ({"p": {"source": [{"pi": "abc", "bloch": [1, 0, 0]}, _PAIR[1]], "target": _PAIR}},
         ["solve", "--problem", "p", "--objective", "FHSavg1"]),
        ({"p": {"source": [{"pi": float("nan"), "bloch": [1, 0, 0]}, _PAIR[1]],
                "target": _PAIR}},
         ["solve", "--problem", "p", "--objective", "FHSavg1"]),
        ({"p": 5}, ["solve", "--problem", "p", "--objective", "FHSavg1"]),
        ({"p": {"source": _PAIR, "target": _PAIR}},
         ["multistep", "--task", "p", "--seed", "0", "--sweep", "2", "--sweep-min", "2",
          "--sweep-max", "3"]),
        ({"p": {"source": _PAIR, "target": _PAIR}},
         ["multistep", "--task", "p", "--seed", "0", "--sweep", "2", "--sweep-min", "nan"]),
        ({"p": {"source": _PAIR, "target": _PAIR}, "n": [{"lam": [0.5, 0.2]}]},
         ["multistep", "--task", "p", "--seed", "0", "--noise", "n"]),
        ({"p": {"source": _PAIR, "target": _PAIR}, "n": [{"lam": [0.5, "a", 0.2]}]},
         ["multistep", "--task", "p", "--seed", "0", "--noise", "n"]),
        ({"p": {"source": _PAIR, "target": _PAIR}, "n": [{"lam": [2, 2, 4], "t": [0, 0, 3]}]},
         ["multistep", "--task", "p", "--seed", "0", "--noise", "n"]),
        ({"p": {"source": _PAIR, "target": _PAIR}, "n": 5},
         ["multistep", "--task", "p", "--seed", "0", "--noise", "n"]),
        ({"p": {"source": _PAIR, "target": _PAIR}, "n": [5]},
         ["multistep", "--task", "p", "--seed", "0", "--noise", "n"]),
        ({"c": {"d": -2, "choi": _DEPOLARIZING}}, ["channel", "--in", "c"]),
        ({"c": {"d": 0, "choi": _EMPTY}}, ["channel", "--in", "c"]),
        ({"c": {"d": 2, "choi": _CHOI_NAN}}, ["channel", "--in", "c"]),
        ({"c": {"d": 2.5, "choi": _DEPOLARIZING}}, ["channel", "--in", "c"]),
        ({"c": {"d": 5, "kraus": [_KRAUS_I2]}}, ["channel", "--in", "c"]),
        ({"c": {"d": True, "kraus": [{"rows": 1, "cols": 1, "re": [1.0], "im": [0.0]}]}},
         ["channel", "--in", "c"]),
        ({"c": {"d": 2, "kraus": 5}}, ["channel", "--in", "c"]),
        ({"p": {"source": _PAIR, "target": _PAIR}, "n": [{"d": 3, "kraus": [_KRAUS_I2]}]},
         ["multistep", "--task", "p", "--seed", "0", "--noise", "n"]),
        ({"s": {"rho": {**_RHO_HALF, "rows": -2, "cols": -2}}},
         ["distances", "--measure", "F", "--a", "s", "--b", "b"]),
        ({"s": {"rho": {**_RHO_HALF, "rows": 2.7}}},
         ["distances", "--measure", "F", "--a", "s", "--b", "b"]),
        ({"s": {"rho": {**_RHO_HALF, "rows": "2"}}},
         ["distances", "--measure", "F", "--a", "s", "--b", "b"]),
        ({"s": {"rho": {"rows": 2, "cols": 3, "re": [0.5, 0, 0, 0, 0.5, 0], "im": [0.0] * 6}}},
         ["distances", "--measure", "F", "--a", "s", "--b", "b"]),
        ({"s": {"rho": {**_RHO_HALF, "re": [[0.5, 0.0], [0.0, 0.5]]}}},
         ["distances", "--measure", "F", "--a", "s", "--b", "b"]),
        ({"c": {"d": 2, "choi": _CHOI_4X3}}, ["channel", "--in", "c"]),
        ({"p": {"source": _PAIR, "target": _PAIR}, "n": [{"d": 2, "choi": _CHOI_4X3}]},
         ["multistep", "--task", "p", "--seed", "0", "--noise", "n"]),
        ({"s": _QUTRIT}, ["discriminate", "--a", "b", "--b", "s", "--p1", "0.4"]),
        ({"p": {"source": [{"pi": 0.5, "rho": _RHO_INF}, _PAIR[1]], "target": _PAIR}},
         ["solve", "--problem", "p", "--objective", "Davg", "--feasible", "ppt"]),
        ({"p": {"source": [{"pi": 0.5, "rho": _RHO_1E308}, _PAIR[1]], "target": _PAIR}},
         ["solve", "--problem", "p", "--objective", "Davg", "--feasible", "ppt"]),
        ({"p": {"source": [{"pi": 0.5, "bloch": [1e308, 0, 0]}, _PAIR[1]], "target": _PAIR}},
         ["solve", "--problem", "p", "--objective", "Davg", "--feasible", "ppt"]),
        ({"s": {"rho": _RHO_1E308}}, ["distances", "--measure", "F", "--a", "s", "--b", "b"]),
        ({"s": {"rho": _RHO_1E308}}, ["discriminate", "--a", "s", "--b", "b", "--p1", "0.4"]),
        ({"c": {"d": 2, "kraus": [{**_KRAUS_I2, "re": [float("inf"), 0.0, 0.0, 1.0]}]}},
         ["channel", "--in", "c"]),
        ({"p": {"source": [{"pi": 0.5, "d": 3, "bloch": [1, 0, 0]}, _PAIR[1]], "target": _PAIR}},
         ["solve", "--problem", "p", "--objective", "Davg", "--feasible", "ppt"]),
        ({"s": {"d": 3, "rho": _RHO_HALF}}, ["distances", "--measure", "F", "--a", "s", "--b", "b"]),
        ({"p": {"source": [{"pi": "0.5", "bloch": [1, 0, 0]}, _PAIR[1]], "target": _PAIR}},
         ["solve", "--problem", "p", "--objective", "Davg", "--feasible", "ppt"]),
        ({"p": {"source": [{"pi": 0.5, "bloch": ["1", 0, 0]}, _PAIR[1]], "target": _PAIR}},
         ["solve", "--problem", "p", "--objective", "Davg", "--feasible", "ppt"]),
        ({"p": {"source": _PAIR, "target": _PAIR}, "n": [{"lam": ["0.5", "0.5", "0.5"]}]},
         ["multistep", "--task", "p", "--seed", "0", "--noise", "n"]),
        ({}, ["clone", "--phi", "0.3", "--out", "/nonexistent/x.json"]),
        ({}, ["clone", "--phi", "0.3", "--out", "."]),
        ({}, ["solve", "--problem", "problem", "--objective", "FHSavg1",
              "--dump-problem", "/nonexistent/d.json"]),
        ({}, ["solve", "--problem", "problem", "--objective", "FHSavg1", "--dump-problem", "."]),
    ],
    ids=["distances-state-5", "au-check-state-5", "distances-bloch-string",
         "distances-bloch-nan", "distances-rho-nan", "solve-pi-string", "solve-pi-nan", "solve-problem-5",
         "multistep-sweep-above-1", "multistep-sweep-nan", "multistep-noise-two-lam",
         "multistep-noise-lam-string", "multistep-noise-not-a-channel",
         "multistep-noise-not-a-list", "multistep-noise-entry-5", "channel-d-negative",
         "channel-d0", "channel-choi-nan", "channel-d-not-integer", "channel-kraus-not-d-by-d",
         "channel-d-bool", "channel-kraus-not-a-list", "multistep-noise-kraus-not-d-by-d",
         "distances-rows-negative", "distances-rows-fraction", "distances-rows-string",
         "distances-rho-2x3", "distances-re-nested", "channel-choi-4x3", "multistep-noise-choi-4x3",
         "discriminate-d2-d3", "solve-re-infinity", "solve-re-1e308", "solve-bloch-1e308",
         "distances-re-1e308", "discriminate-re-1e308", "channel-kraus-infinity",
         "solve-bloch-d-mismatch", "distances-rho-d-mismatch", "solve-pi-number-string",
         "solve-bloch-number-string", "multistep-noise-lam-number-strings",
         "clone-out-missing-dir", "clone-out-directory", "solve-dump-problem-missing-dir",
         "solve-dump-problem-directory"],
)
def test_cli_malformed_payloads_exit_2(files, argv, workdir, tmp_path, capsys):
    paths = dict(workdir)
    for name, payload in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    assert cli.main([paths.get(arg, arg) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("qtrack: invalid input: ") and err.count("\n") == 1
    assert "Traceback" not in err
