"""Exit codes, artifacts, and output of the command-line front end."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triqdd import cli, ddseq, qmat, spinsys


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- orders ----------------------------------------------------------------

def test_orders_prints_the_antisymmetric_matrix(capsys):
    code, out, _ = run_cli(capsys, "orders")
    assert code == 0
    rows = []
    for line in out.strip().splitlines()[1:]:
        cells = line.split()[1:]
        rows.append([int(c) for c in cells])
    m = np.array(rows)
    assert m.shape == (8, 8)
    assert m[0, 7] == 3
    assert np.diag(m).tolist() == [0] * 8
    assert np.array_equal(m, -m.T)
    assert np.array_equal(m, qmat.coherence_order_matrix())


# -- sequences -------------------------------------------------------------

def test_sequences_table_lists_every_pulse(capsys):
    code, out, _ = run_cli(capsys, "sequences", "XY8", "--targets", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("XY8 on qubits 2: 8 pulses")
    assert len(lines) == 10  # banner, header, eight pulse rows


def test_sequences_json_round_trips_the_schedule(capsys, tmp_path):
    path = tmp_path / "cycle.json"
    code, _, _ = run_cli(capsys, "sequences", "KDD20", "--tau", "0.4e-3",
                         "--tp", "2e-5", "--json", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    events, duration, name = ddseq.program_from_json(doc)
    cycle = ddseq.generate("KDD20", 0.4e-3, 2e-5)
    want_events, want_duration = ddseq.program(cycle, cycle.unit_cycles)
    assert name == "KDD20" and len(events) == 20
    assert duration == pytest.approx(want_duration)
    for got, want in zip(events, want_events):
        assert got.start == pytest.approx(want.start)
        assert got.duration == pytest.approx(want.duration)
        assert got.targets == want.targets
        assert got.phases == pytest.approx(want.phases)


def test_sequences_cpmg_and_modified_variants(capsys):
    code, out, _ = run_cli(capsys, "sequences", "CPMG4", "--targets", "1")
    assert code == 0 and out.startswith("CPMG4 ")
    code, out, _ = run_cli(capsys, "sequences", "XY8", "--targets", "1,3", "--modified")
    assert code == 0
    assert out.startswith("mXY8 ")
    assert "9 pulses per 2 cycles" not in out  # unit export holds both cycles
    assert "18 pulses per 2 cycles" in out


def test_sequences_rejects_bad_input(capsys):
    code, _, err = run_cli(capsys, "sequences", "XY9")
    assert code == 2 and "config error" in err
    code, _, err = run_cli(capsys, "sequences", "XY8", "--modified")
    assert code == 2 and "two-qubit" in err


# -- prepare ---------------------------------------------------------------

def test_prepare_emits_the_state_document(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "prepare", "psi1a")
    assert code == 0
    doc = json.loads(out)
    assert doc["state"] == "psi1a"
    assert doc["tracked_element"] == [0, 2]
    assert doc["element_label"] == "rho13"
    path = tmp_path / "star.json"
    code, _, _ = run_cli(capsys, "prepare", "star", "--json", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["state"] == "star"
    assert doc["tracked_element"] == [0, 7]
    assert doc["element_label"] == "rho18"


def test_prepare_rejects_unknown_state(capsys):
    code, _, err = run_cli(capsys, "prepare", "psi7x")
    assert code == 2 and "unknown state" in err


# -- decay -----------------------------------------------------------------

def decay_args(tmp_path, *extra):
    return ("decay", "--state", "psi1a", "--families", "XY8",
            "--set", "disorder.shots=16",
            "--out-csv", str(tmp_path / "curves.csv"),
            "--out-json", str(tmp_path / "summary.json")) + extra


def test_decay_writes_deterministic_artifacts(capsys, tmp_path):
    code, out, _ = run_cli(capsys, *decay_args(tmp_path))
    assert code == 0
    assert "wrote 3 decay curves" in out
    csv_text = (tmp_path / "curves.csv").read_text()
    assert csv_text.startswith("state,protocol,sequence,time_s,value,kind\n")
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["time_s"] == 0.7
    assert summary["config"]["disorder"]["shots"] == "16"
    assert summary["ordering"]["all_pass"] is True
    assert len(summary["ordering"]["facts"]) == 2
    run_cli(capsys, *decay_args(tmp_path))
    assert (tmp_path / "curves.csv").read_text() == csv_text


def test_decay_honors_config_file_and_overrides(capsys, tmp_path):
    cfg = tmp_path / "quiet.cfg"
    cfg.write_text("[noise]\ngamma_s = 0 0 0\ngamma_corr_s = 0\n")
    code, _, _ = run_cli(capsys, "decay", "--config", str(cfg),
                         "--state", "psi3", "--families", "XY8",
                         "--out-csv", str(tmp_path / "c.csv"),
                         "--out-json", str(tmp_path / "s.json"))
    assert code == 0
    summary = json.loads((tmp_path / "s.json").read_text())
    assert summary["percents"]["psi3"]["DD3sp/XY8"] == pytest.approx(100.0)


def test_decay_rejects_broken_config(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[noise]\ngamma_q = 1 2 3\n")
    code, _, err = run_cli(capsys, "decay", "--config", str(cfg))
    assert code == 2 and "gamma_q" in err and "[noise]" in err
    code, _, err = run_cli(capsys, "decay", "--config", str(tmp_path / "nope.cfg"))
    assert code == 2
    code, _, err = run_cli(capsys, "decay", "--set", "shots=16")
    assert code == 2 and "section.key=value" in err
    # the pulse section sets no width: widths come from the delay table
    code, _, err = run_cli(capsys, *decay_args(tmp_path, "--set", "pulse.duration_s=2e-5"))
    assert code == 2 and "unknown key 'duration_s'" in err
    # counts and seeds are whole numbers, never truncated
    code, _, err = run_cli(capsys, *decay_args(tmp_path, "--set", "disorder.shots=2.7"))
    assert code == 2 and "[disorder] shots" in err and "whole number" in err
    code, _, err = run_cli(capsys, *decay_args(tmp_path, "--set", "disorder.seed=1.5"))
    assert code == 2 and "[disorder] seed" in err and "whole number" in err
    # only the seven table states have a designated protocol
    for state in ("nope", "star"):
        code, _, err = run_cli(capsys, "decay", "--state", state)
        assert code == 2 and f"'{state}'" in err and "psi3" in err


_SECTIONS = sorted({section for section, *_ in spinsys.CONFIG_KEYS})
_NAMES = st.text(min_size=1, max_size=10).filter(lambda s: not s.startswith("-"))
_NUMBERS = st.floats(allow_nan=True, allow_infinity=True).map(repr)


@st.composite
def overrides(draw):
    section, key, _, _, default, _ = draw(st.sampled_from(spinsys.CONFIG_KEYS))
    if draw(st.booleans()):  # an unknown key, in a known or an unknown section
        section, key = draw(st.tuples(st.sampled_from(_SECTIONS) | _NAMES, _NAMES))
    value = draw(st.one_of(
        st.just(default),
        st.text(max_size=16),
        _NUMBERS,
        st.lists(_NUMBERS, min_size=1, max_size=4).map(" ".join),
        st.sampled_from(["nan", "inf", "-inf", " ", "\t", " 1 ", "on", "off", "2.7"])))
    return f"{section}.{key}={value}"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(overrides(), min_size=1, max_size=3))
def test_fuzzed_overrides_give_a_system_or_a_config_error(pairs):
    argv = ["decay"]
    for raw in pairs:
        argv += ["--set", raw]
    args = cli.build_parser().parse_args(argv)
    try:
        sys_, _ = cli.resolve_system(args)
    except spinsys.ConfigError:
        return
    assert isinstance(sys_, spinsys.SpinSystem)


# -- protect ---------------------------------------------------------------

def test_protect_reports_all_facts(capsys):
    code, out, _ = run_cli(capsys, "protect", "--families", "XY8",
                           "--set", "disorder.shots=32")
    assert code == 0
    assert "ordering: 11/11 pass" in out
    lines = [l for l in out.splitlines() if "margin" in l and "vs" in l]
    assert len(lines) == 11
    assert not any(" fail" in l for l in lines)
    # the published table has no all-spin numbers for the first-order states, so the
    # DD1sp vs DD3sp facts must not echo a published pair
    dd3_lines = [l for l in lines if "psi1" in l and "DD3sp" in l]
    assert dd3_lines and all("published" not in l for l in dd3_lines)


# -- star ------------------------------------------------------------------

def test_star_emits_both_pairs_and_free_rows(capsys, tmp_path):
    path = tmp_path / "star.csv"
    code, out, _ = run_cli(capsys, "star", "--set", "disorder.shots=16",
                           "--points", "3", "--free", "--out-csv", str(path))
    assert code == 0
    assert "pair AC" in out and "pair BC" in out
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 4 * 3
    kinds = {line.split(",")[-1] for line in lines[1:]}
    assert kinds == {"concurrence"}
    protocols = [line.split(",")[1] for line in lines[1:]]
    assert protocols.count("mDD2sp") == 6 and protocols.count("FreeEv") == 6


# -- tomo ------------------------------------------------------------------

def test_tomo_reports_fidelity(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "tomo", "psi2a")
    assert code == 0
    fid = float(out.split("fidelity")[1].split()[0])
    assert fid >= 0.999
    path = tmp_path / "rec.json"
    code, _, _ = run_cli(capsys, "tomo", "star", "--sigma", "0.01",
                         "--seed", "5", "--json", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["fidelity"] >= 0.97
    assert doc["rho"]["dim"] == 8


def test_negative_or_non_finite_readout_noise_exits_two(capsys, tmp_path):
    for sigma in ("-1", "nan"):
        code, out, err = run_cli(capsys, "tomo", "psi1a", "--sigma", sigma)
        assert code == 2 and "sigma" in err and "fidelity" not in out
    code, _, err = run_cli(capsys, "star", "--tomo-sigma", "-0.5", "--points", "2",
                           "--out-csv", str(tmp_path / "star.csv"))
    assert code == 2 and "sigma" in err


# -- config-reference ------------------------------------------------------

def test_config_reference_documents_every_key(capsys):
    code, out, _ = run_cli(capsys, "config-reference")
    assert code == 0
    for key in ("offsets_hz", "couplings_hz", "gamma_s", "gamma_corr_s",
                "flip_fraction_error", "phase_error_rad",
                "internal_h_during_pulse", "enabled", "sigma_hz",
                "sigma_corr_hz", "shots", "seed"):
        assert key in out
    assert "duration_s" not in out  # pulse widths come from the delay table
    # the committed run config is echoed verbatim at the end
    assert "sigma_corr_hz = 0.72" in out
    assert "gamma_s = 0.08 0.10 0.22" in out


# -- exit codes ------------------------------------------------------------

def test_invariant_violations_exit_three(capsys, monkeypatch):
    from triqdd import runner

    def boom(*a, **k):
        raise qmat.InvariantError("negative eigenvalue")

    monkeypatch.setattr(runner, "run_grid", boom)
    code, _, err = run_cli(capsys, "decay")
    assert code == 3 and "invariant violation" in err


def test_broken_state_mid_run_exits_three(capsys, monkeypatch, tmp_path):
    from triqdd import spinsys
    real = spinsys.free_factors

    def doubled(*args, **kwargs):  # breaks the trace of every evolved state
        return 2.0 * real(*args, **kwargs)

    monkeypatch.setattr(spinsys, "free_factors", doubled)
    code, _, err = run_cli(capsys, *decay_args(tmp_path))
    assert code == 3
    assert "invariant violation" in err and "trace is" in err
