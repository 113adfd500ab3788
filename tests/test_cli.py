"""Exit codes, artifacts, and output of the command-line front end."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import triqdd
from triqdd import circuits, cli, ddseq, qmat, runner, spinsys

from oracles import program_from_json


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
    events, duration, name = program_from_json(doc)
    cycle = ddseq.generate("KDD20", 0.4e-3, 2e-5)
    want_events, want_duration = ddseq.program(cycle, cycle.unit_cycles)
    assert name == "KDD20" and len(events) == 20
    assert duration == pytest.approx(want_duration)
    for got, want in zip(events, want_events):
        assert got.start == pytest.approx(want.start)
        assert got.duration == pytest.approx(want.duration)
        assert got.targets == want.targets
        assert got.phase == pytest.approx(want.phase)


def test_sequences_cpmg_and_modified_variants(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "sequences", "CPMG4", "--targets", "1")
    assert code == 0 and out.startswith("CPMG4 ")
    # URn is built by the UR rule for any even n >= 4
    code, out, _ = run_cli(capsys, "sequences", "UR8", "--targets", "1")
    assert code == 0 and out.startswith("UR8 on qubits 1: 8 pulses")
    path = tmp_path / "ur8.json"
    code, _, _ = run_cli(capsys, "sequences", "UR8", "--targets", "1", "--json", str(path))
    assert code == 0
    assert [ev["phase_deg"] for ev in json.loads(path.read_text())["events"]] == [
        0, 0, 90, 270, 180, 180, 270, 90]
    code, out, _ = run_cli(capsys, "sequences", "XY8", "--targets", "1,3", "--modified")
    assert code == 0
    assert out.startswith("mXY8 ")
    assert "9 pulses per 2 cycles" not in out  # unit export holds both cycles
    assert "18 pulses per 2 cycles" in out


def test_sequences_rejects_bad_input(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sequences", "XY9")
    assert code == 2 and "config error" in err
    for family in ("CPMG", "CPMGx", "UR2", "UR5", "CPMG0"):
        code, out, err = run_cli(capsys, "sequences", family)
        assert code == 2 and f"unknown family '{family}'" in err and not out, family
    code, _, err = run_cli(capsys, "sequences", "XY8", "--modified")
    assert code == 2 and "two-qubit" in err
    for flag, value in (("--tau", "nan"), ("--tau", "inf"), ("--tp", "nan")):
        code, out, err = run_cli(capsys, "sequences", "XY8", flag, value)
        assert code == 2 and "must be finite" in err and not out
    code, out, err = run_cli(capsys, "sequences", "XY8", "--targets", "1,1")
    assert code == 2 and "duplicate target in (1, 1)" in err and not out
    # an empty item is refused by its key, not dropped: 1,,2 is not the targets 1,2
    for targets in ("1,,2", ",1", "1,2,"):
        code, out, err = run_cli(capsys, "sequences", "XY8", "--targets", targets)
        assert code == 2 and f"--targets: empty item in '{targets}'" in err and not out
    # a schedule past the largest float is refused by name, and nothing is written
    code, out, err = run_cli(capsys, "sequences", "XY8", "--tau", "1e308", "--json",
                             str(tmp_path / "x.json"))
    assert code == 2 and "overflows a float" in err and not out
    assert not (tmp_path / "x.json").exists()
    # slot 0's doubled window would start before the cycle when t_p > tau
    code, out, err = run_cli(capsys, "sequences", "XY8", "--targets", "1,2", "--modified",
                             "--slot", "0", "--tau", "1e-3", "--tp", "1.5e-3")
    assert code == 2 and "slot 0" in err and not out


def test_sequences_help_names_every_family(capsys):
    with pytest.raises(SystemExit):
        cli.main(["sequences", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert f"{'/'.join(sorted(ddseq.phase_tables()))}, CPMGn or URn (even n >= 4)" in out


def test_sequences_slot_needs_modified(capsys):
    # a slot is never silently dropped: without --modified it is a config error
    code, out, err = run_cli(capsys, "sequences", "XY8", "--targets", "1,2", "--slot", "3")
    assert code == 2 and "--modified" in err and not out
    code, out, _ = run_cli(capsys, "sequences", "XY8", "--targets", "1,2", "--slot", "3",
                           "--modified")
    assert code == 0 and out.startswith("mXY8 ")


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


def test_prepare_json_names_the_tracked_element_of_every_catalog_state(capsys, tmp_path):
    assert len(circuits.state_ids()) == 8
    for state_id in circuits.state_ids():
        path = tmp_path / f"{state_id}.json"
        code, _, _ = run_cli(capsys, "prepare", state_id, "--json", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        i, j = doc["tracked_element"]
        assert (i, j) == circuits.tracked_element(state_id)
        assert doc["element_label"] == f"rho{i + 1}{j + 1}"


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


def test_decay_at_t_max_zero_writes_one_row_per_curve(capsys, tmp_path):
    # every grid is sorted and distinct: free evolution's twenty targets at 0 are one time,
    # as each DD grid's are
    code, out, _ = run_cli(capsys, *decay_args(tmp_path, "--t-max", "0"))
    assert code == 0 and "wrote 3 decay curves" in out
    rows = (tmp_path / "curves.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1:5] for row in rows] == [
        ["FreeEv", "-", "0", "1"], ["DD1sp", "XY8", "0", "1"], ["DD3sp", "XY8", "0", "1"]]


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
    # [DEFAULT] is an unknown section, not a silent no-op on the built-in model
    cfg.write_text("[DEFAULT]\nshots = 5\n")
    code, out, err = run_cli(capsys, "decay", "--config", str(cfg), "--state", "psi3",
                             "--families", "XY8", "--points", "3", "--out-csv",
                             str(tmp_path / "d.csv"), "--out-json", str(tmp_path / "d.json"))
    assert code == 2 and "unknown config section [DEFAULT]" in err and not out
    assert not (tmp_path / "d.csv").exists()
    code, _, err = run_cli(capsys, "decay", "--set", "shots=16")
    assert code == 2 and "section.key=value" in err
    # an empty item in a comma list is refused by its key, not dropped
    code, out, err = run_cli(capsys, *decay_args(tmp_path, "--set",
                                                 "system.couplings_hz=48,,161,-192"))
    assert code == 2 and "[system] couplings_hz: empty item in '48,,161,-192'" in err
    assert not out and not (tmp_path / "curves.csv").exists()
    # the pulse section sets no width: widths come from the delay table
    code, _, err = run_cli(capsys, *decay_args(tmp_path, "--set", "pulse.duration_s=2e-5"))
    assert code == 2 and "unknown key 'duration_s'" in err
    # nor is there a disorder switch: the widths alone turn disorder on
    for value in ("on", "off"):
        code, _, err = run_cli(capsys, *decay_args(tmp_path, "--set", f"disorder.enabled={value}"))
        assert code == 2 and "unknown key 'enabled' in section [disorder]" in err
    # counts and seeds are whole numbers, never truncated
    code, _, err = run_cli(capsys, *decay_args(tmp_path, "--set", "disorder.shots=2.7"))
    assert code == 2 and "[disorder] shots" in err and "whole number" in err
    code, _, err = run_cli(capsys, *decay_args(tmp_path, "--set", "disorder.seed=1.5"))
    assert code == 2 and "[disorder] seed" in err and "whole number" in err
    # only the seven table states have a designated protocol
    for state in ("nope", "star"):
        code, _, err = run_cli(capsys, "decay", "--state", state)
        assert code == 2 and f"'{state}'" in err and "psi3" in err
    # a repeated state or family would run, and be reported, twice
    code, _, err = run_cli(capsys, *decay_args(tmp_path, "--state", "psi1a"))
    assert code == 2 and "repeated state ['psi1a']" in err
    code, _, err = run_cli(capsys, *decay_args(tmp_path, "--families", "XY8,XY8"))
    assert code == 2 and "repeated family ['XY8']" in err
    # an empty family list would check no fact and pass
    for argv in (decay_args(tmp_path, "--families", ","),
                 ("decay", "--state", "psi3", "--families", ","),
                 ("protect", "--families", ","), ("protect", "--families", "")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "empty family list, expected some of" in err
    # a non-finite horizon is bad input, not a broken evolution
    for t_max in ("nan", "inf"):
        code, _, err = run_cli(capsys, "decay", "--state", "psi3", "--families", "XY8",
                               "--t-max", t_max, "--out-csv", str(tmp_path / "c.csv"),
                               "--out-json", str(tmp_path / "s.json"))
        assert code == 2 and "finite t_max" in err
    code, _, err = run_cli(capsys, "star", "--t-max", "inf", "--points", "3",
                           "--out-csv", str(tmp_path / "star.csv"))
    assert code == 2 and "finite t_max" in err


def test_families_refuse_an_empty_item_between_names(capsys, tmp_path):
    # XY8,,KDD20 is not the families XY8 and KDD20: the empty item is named by its flag
    code, out, err = run_cli(capsys, "decay", "--state", "psi3", "--families", "XY8,,KDD20",
                             "--points", "3", "--out-csv", str(tmp_path / "c.csv"),
                             "--out-json", str(tmp_path / "s.json"))
    assert code == 2 and "--families: empty item in 'XY8,,KDD20'" in err and not out
    assert not (tmp_path / "c.csv").exists()


def test_families_take_blanks_between_names(capsys, tmp_path):
    # blanks set names apart, as in --targets and the config triples
    code, _, _ = run_cli(capsys, "decay", "--state", "psi3", "--families", "XY8 KDD20",
                         "--points", "3", "--out-csv", str(tmp_path / "c.csv"),
                         "--out-json", str(tmp_path / "s.json"))
    assert code == 0
    summary = json.loads((tmp_path / "s.json").read_text())
    assert sorted(summary["percents"]["psi3"]) == ["DD3sp/KDD20", "DD3sp/XY8", "FreeEv"]


def test_uncountable_time_grid_exits_two(capsys, tmp_path):
    # finite horizons whose unit counts overflow a 64-bit grid, named, not a traceback
    for argv in (("decay", "--state", "psi3", "--families", "XY8", "--t-max", "1e20",
                  "--out-csv", str(tmp_path / "c.csv"), "--out-json", str(tmp_path / "s.json")),
                 ("star", "--points", "3", "--t-max", "1e300",
                  "--out-csv", str(tmp_path / "star.csv"))):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "more than a time grid can count" in err
        assert not (tmp_path / "c.csv").exists() and not (tmp_path / "star.csv").exists()


def test_overflowing_system_or_disorder_exits_two(capsys, tmp_path):
    # an overflowing frame, offset draw or level phase is a config error naming what
    # overflowed, without numpy warnings on the way, not a broken evolution (exit 3)
    flip = ("--set", "pulse.flip_fraction_error=0.02")
    wide = ("--set", "disorder.shots=512")  # draws beyond 1.8 sigma: 1e308 overflows
    cases = ((("--set", "system.offsets_hz=1e308,0,0"), "offsets or couplings"),
             (("--set", "system.couplings_hz=0,1e308,0") + flip, "offsets or couplings"),
             (("--set", "disorder.sigma_corr_hz=1e308") + wide, "disorder widths"),
             (("--set", "disorder.sigma_hz=1e308,1,1") + wide + flip, "disorder widths"),
             # 16 finite draws, but one 0.7 s free step overflows their phases
             (("--set", "disorder.sigma_corr_hz=1e308", "--points", "2"), "disorder offsets"),
             # 10^13 shots of four offsets is 291 TiB, past a 2^47-byte address space,
             # so the draw's allocation fails at once on any host
             (("--set", "disorder.shots=10000000000000"), "allocate"))
    for extra, named in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run_cli(capsys, *decay_args(tmp_path, *extra))
        assert code == 2 and named in err, (extra, err)


def test_disorder_widths_alone_turn_disorder_on(capsys, tmp_path):
    # over an empty config, with no switch to set, nonzero widths change the run
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    csvs = []
    for name, widths in (("zero", "0,0,0"), ("wide", "50,50,50")):
        path = tmp_path / f"{name}.csv"
        code, _, _ = run_cli(capsys, "decay", "--config", str(empty), "--state", "psi3",
                             "--families", "XY8", "--points", "3",
                             "--set", f"disorder.sigma_hz={widths}", "--out-csv", str(path),
                             "--out-json", str(tmp_path / f"{name}.json"))
        assert code == 0
        csvs.append(path.read_text())
    assert csvs[0] != csvs[1]


def test_overflowing_flip_angle_exits_two(capsys, tmp_path):
    # an infinite flip angle is no half-turn count and no finite window to integrate;
    # from 2^52 half turns on every float is whole, so a pi pulse would read as exact
    flip = ("--set", "pulse.flip_fraction_error=1e308")
    files = ("--out-csv", str(tmp_path / "c.csv"))
    decay = ("decay", "--state", "psi3", "--families", "XY8", "--points", "3")
    for argv in (decay + flip,
                 decay + flip + ("--set", "pulse.internal_h_during_pulse=on"),
                 ("star", "--points", "3") + flip,
                 decay + ("--set", "pulse.flip_fraction_error=1e16"),
                 decay + ("--set", "pulse.flip_fraction_error=1e17")):
        extra = ("--out-json", str(tmp_path / "s.json")) if argv[0] == "decay" else ()
        code, _, err = run_cli(capsys, *argv, *files, *extra)
        assert code == 2 and "pulse.flip_fraction_error" in err, (argv, err)
        assert not (tmp_path / "c.csv").exists()


_SECTIONS = sorted({section for section, *_ in spinsys.CONFIG_KEYS})
_NAMES = st.text(min_size=1, max_size=10).filter(lambda s: not s.startswith("-"))
_NUMBERS = st.floats(allow_nan=True, allow_infinity=True).map(repr)


@st.composite
def overrides(draw):
    section, key, name, _ = draw(st.sampled_from(spinsys.CONFIG_KEYS))
    default = spinsys.default_text(section, name)  # the model's default, a valid value
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



def test_set_overrides_leave_the_committed_config_as_it_was(monkeypatch):
    # the committed config is parsed once per process and --set merges onto a copy:
    # an override into an existing section, or into a new one, reaches no later call
    parser = cli.build_parser()
    committed = {section: dict(entries) for section, entries in runner.default_config().items()}
    runner.default_config.cache_clear()
    reads, real = [], spinsys.read_ini
    monkeypatch.setattr(spinsys, "read_ini", lambda text: reads.append(text) or real(text))
    sys_, cfg = cli.resolve_system(parser.parse_args(["decay", "--set", "disorder.shots=16"]))
    assert sys_.disorder.shots == 16 and cfg["disorder"]["shots"] == "16"
    with pytest.raises(spinsys.ConfigError, match=r"unknown config section \[extra\]"):
        cli.resolve_system(parser.parse_args(
            ["decay", "--set", "noise.gamma_corr_s=0", "--set", "extra.key=1"]))
    for _ in range(3):
        sys_, cfg = cli.resolve_system(parser.parse_args(["decay"]))
        assert sys_ == runner.default_system() and cfg == committed
    assert len(reads) == 1
    with pytest.raises(TypeError):
        runner.default_config()["disorder"]["shots"] = "16"

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


def test_decay_and_protect_write_the_same_summary(capsys, tmp_path):
    common = ("--families", "XY8", "--set", "disorder.shots=16")
    code, _, _ = run_cli(capsys, "decay", *common, "--out-csv", str(tmp_path / "c.csv"),
                         "--out-json", str(tmp_path / "decay.json"))
    assert code == 0
    code, out, _ = run_cli(capsys, "protect", *common,
                           "--out-json", str(tmp_path / "protect.json"))
    assert code == 0 and "wrote summary" in out
    assert (tmp_path / "decay.json").read_bytes() == (tmp_path / "protect.json").read_bytes()


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


def test_star_seed_needs_tomo_sigma(capsys, tmp_path):
    # the seed only feeds the tomography noise: without it, it is never silently dropped
    path = tmp_path / "star.csv"
    code, out, err = run_cli(capsys, "star", "--seed", "5", "--points", "3",
                             "--out-csv", str(path))
    assert code == 2 and "--seed" in err and "--tomo-sigma" in err
    assert not out and not path.exists()
    code, _, _ = run_cli(capsys, "star", "--seed", "5", "--tomo-sigma", "0.01",
                         "--set", "disorder.shots=16", "--points", "3", "--out-csv", str(path))
    assert code == 0 and path.exists()


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


def test_negative_tomography_seed_exits_two_by_name(capsys, tmp_path):
    seed_error = "tomography seed must be nonnegative, got -1"
    for sigma in ("0", "0.01"):
        code, out, err = run_cli(capsys, "tomo", "psi1a", "--sigma", sigma, "--seed", "-1")
        assert code == 2 and seed_error in err and not out
    path = tmp_path / "star.csv"
    code, out, err = run_cli(capsys, "star", "--tomo-sigma", "0.01", "--seed", "-1",
                             "--set", "disorder.shots=16", "--points", "2", "--out-csv", str(path))
    assert code == 2 and seed_error in err and not out and not path.exists()


def test_overflowing_readout_noise_exits_two(capsys):
    # the averaged draws overflow to inf and nan: a config error naming sigma,
    # without numpy overflow warnings on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "tomo", "psi1a", "--sigma", "1e308")
    assert code == 2 and "sigma" in err and "fidelity" not in out


# -- config-reference ------------------------------------------------------

def test_config_reference_documents_every_key(capsys):
    code, out, _ = run_cli(capsys, "config-reference")
    assert code == 0
    for key in ("offsets_hz", "couplings_hz", "gamma_s", "gamma_corr_s",
                "flip_fraction_error", "phase_error_rad",
                "internal_h_during_pulse", "sigma_hz",
                "sigma_corr_hz", "shots", "seed"):
        assert key in out
    assert "enabled" not in out  # the widths alone turn disorder on
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
    real = spinsys._tables

    def gaining(*args):  # populations grow: breaks the trace of every evolved state
        energy, phase, decay, sens = real(*args)
        return energy, phase, decay - np.eye(spinsys.DIM), sens

    # free evolution and the compiled pulse programs both read this table
    monkeypatch.setattr(spinsys, "_tables", gaining)
    code, _, err = run_cli(capsys, *decay_args(tmp_path))
    assert code == 3
    assert "invariant violation" in err and "trace is" in err
    # the evolved state is checked before the tomography readout, whose output
    # is a valid state whatever it was given
    readouts = []
    monkeypatch.setattr(circuits, "tomography", lambda *a, **k: readouts.append(a))
    code, _, err = run_cli(capsys, "star", "--tomo-sigma", "0.01", "--points", "3",
                           "--out-csv", str(tmp_path / "star.csv"))
    assert code == 3
    assert "invariant violation" in err and "trace is" in err
    assert readouts == []


# -- parser ----------------------------------------------------------------

# appends (--set, --state) are followed by the same command without them
_ARGVS = [
    ["decay", "--set", "disorder.shots=16", "--set", "disorder.seed=3",
     "--state", "psi1a", "--state", "psi3", "--families", "XY8", "--points", "3"],
    ["decay"],
    ["decay", "--state", "psi0a"],
    ["protect", "--set", "disorder.shots=16", "--families", "XY8", "--out-json", "s.json"],
    ["protect"],
    ["star", "--free", "--prep", "nmr", "--tomo-sigma", "0.01", "--seed", "3",
     "--set", "pulse.flip_fraction_error=0.02"],
    ["star"],
    ["tomo", "star", "--sigma", "0.01", "--seed", "3", "--json", "rec.json"],
    ["tomo", "psi1a"],
    ["sequences", "XY8", "--targets", "1,2", "--modified", "--slot", "3", "--tp", "1e-5"],
    ["sequences", "UR8"],
    ["prepare", "star"],
    ["orders"],
    ["config-reference"],
]


def test_the_parser_is_built_once_and_keeps_no_state_between_calls():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    for argv in _ARGVS + _ARGVS[::-1]:
        assert parser.parse_args(argv) == cli.build_parser.__wrapped__().parse_args(argv), argv
    assert parser.parse_args(["decay"]).set is None
    assert parser.parse_args(["decay"]).state is None


def test_a_refused_argv_leaves_the_parser_working(capsys):
    cli.main(["orders"])
    built = cli.build_parser.cache_info().misses
    for bad in (["tomo", "psi1a", "--bogus"], ["decay", "--set"], ["tomo"], ["nope"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(bad)
        assert exc.value.code == 2
        assert "usage: triqdd" in capsys.readouterr().err
        code, out, err = run_cli(capsys, "tomo", "psi1a", "--sigma", "0.01", "--seed", "3")
        assert code == 0 and "fidelity" in out and not err
    assert cli.build_parser.cache_info().misses == built  # main parsed with the one parser


# -- dependencies ----------------------------------------------------------

_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # every scipy import now raises ModuleNotFoundError
from triqdd import cli
for argv in {commands!r}:
    code = cli.main(argv)
    if code != 0:
        sys.exit(f"{{argv}} exited {{code}}")
"""


def test_commands_run_without_scipy(tmp_path):
    # the windowed-pulse exponential, a free star run and the tomography solve
    commands = [
        ["decay", "--state", "psi1a", "--families", "XY8", "--points", "3",
         "--set", "pulse.internal_h_during_pulse=on", "--out-csv", "c.csv", "--out-json", "s.json"],
        ["star", "--free", "--prep", "nmr", "--tomo-sigma", "0.01", "--points", "3",
         "--out-csv", "star.csv"],
        ["tomo", "star", "--sigma", "0.01"],
    ]
    src = str(Path(triqdd.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY.format(commands=commands)],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
