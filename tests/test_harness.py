"""Tests for the experiment runner, emission, and CLI."""

import csv
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vtsearch.harness as harness_mod
from vtsearch.cli import config_from_args, main
from vtsearch.harness import (EXPERIMENT_KINDS, ExperimentConfig, ResultSet,
                              emit, run_experiment)
from vtsearch.instances import REGIMES

SMALL = dict(n_list=(4,), t_list=(2,), z_list=(2,), num_seeds=2)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(kind="full-suite", regimes=("x",))
    with pytest.raises(ValueError):
        ExperimentConfig(kind="full-suite", num_seeds=0)


def test_config_rejects_empty_regimes_before_running():
    for kind in ("general-loop", "full-suite"):
        with pytest.raises(ValueError, match="at least one regime"):
            ExperimentConfig(kind=kind, regimes=())
    ExperimentConfig(kind="bounds-compare", regimes=())


def test_config_rejects_unknown_format_before_running():
    with pytest.raises(ValueError, match="unknown output format 'xml'"):
        ExperimentConfig(kind="bounds-compare", formats=("json", "xml"))
    a = ExperimentConfig(kind="bounds-compare", formats=("csv",))
    b = ExperimentConfig(kind="bounds-compare")
    assert a.canonical_json() == b.canonical_json() and a.digest() == b.digest()


def test_config_rejects_t_list_without_general_steps():
    for kind in ("general-loop", "full-suite"):
        with pytest.raises(ValueError):
            ExperimentConfig(kind=kind, t_list=(1,))
    ExperimentConfig(kind="general-loop", t_list=(1, 2))
    ExperimentConfig(kind="bounds-compare", t_list=(1,))


def test_config_digest_ignores_emission_details():
    a = ExperimentConfig(kind="bounds-compare", output_dir="/tmp/a", **SMALL)
    b = ExperimentConfig(kind="bounds-compare", output_dir="/tmp/b",
                         formats=("csv",), **SMALL)
    assert a.digest() == b.digest()
    c = ExperimentConfig(kind="bounds-compare", seed=1, **SMALL)
    assert c.digest() != a.digest()


@pytest.mark.parametrize("kind,expected_records", [
    ("grover-weights", 1),
    ("simple-loop", 2),       # marked and unmarked at N=4
    ("bounds-compare", 2),    # one per seed
])
def test_experiment_kinds_pass(kind, expected_records):
    results = run_experiment(ExperimentConfig(kind=kind, **SMALL))
    assert results.passed
    assert len(results.records) == expected_records


def test_general_loop_records_include_verdicts():
    results = run_experiment(ExperimentConfig(
        kind="general-loop", n_list=(2,), t_list=(2,), z_list=(2,),
        num_seeds=2))
    assert results.passed
    # dim 504 instances admit full decisions
    assert all(r["payload"]["verdicts"] == {"marked": "positive",
                                            "empty": "negative"}
               for r in results.records)
    assert len(results.records) == 2 * 5  # seeds x regimes
    # the constants handed to decide, with the c_plus clamp made explicit
    for r in results.records:
        p = r["payload"]
        assert p["c_plus_decide"] == min(p["c_plus_effective"], 50.0)
        assert p["c_minus"] == max(p["neg_norm_closed"], p["c_plus_effective"], 1.0)


def test_general_loop_decides_every_record(tmp_path):
    """At d = 840 every record is decided; there is no size cut-off."""
    results = run_experiment(ExperimentConfig(
        kind="general-loop", n_list=(4,), t_list=(2,), z_list=(2,),
        regimes=("i-a", "ii-b"), num_seeds=1, output_dir=str(tmp_path)))
    assert results.passed and len(results.records) == 2
    for r in results.records:
        assert r["payload"]["verdicts"] == {"marked": "positive",
                                            "empty": "negative"}
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert sorted(summary) == ["config_digest", "passed", "record_count",
                               "wall_time_s"]


@pytest.mark.parametrize("n_list,seed,num_seeds,groups", [
    ((2,), 0, 4, [4]),
    # seed 6 draws n = 2 between runs of n = 3: shapes of both sizes share the pass
    ((2, 3), 2, 7, [7]),
])
def test_grouped_seeds_give_the_payloads_of_seed_by_seed_runs(n_list, seed, num_seeds,
                                                              groups, monkeypatch):
    """Consecutive seeds of any shapes are decided together, with each seed's own payloads."""
    sizes = []
    run_seeds = harness_mod._run_seeds

    def counted(config, results, prefix, group):
        sizes.append(len(group))
        return run_seeds(config, results, prefix, group)

    monkeypatch.setattr(harness_mod, "_run_seeds", counted)
    shape = dict(kind="general-loop", n_list=n_list, t_list=(2,), z_list=(2,))
    together = run_experiment(ExperimentConfig(seed=seed, num_seeds=num_seeds, **shape))
    assert sizes == groups and together.passed
    alone = [record for s in range(seed, seed + num_seeds) for record in
             run_experiment(ExperimentConfig(seed=s, num_seeds=1, **shape)).records]
    assert ([json.dumps(r["payload"], sort_keys=True) for r in together.records]
            == [json.dumps(r["payload"], sort_keys=True) for r in alone])


def test_seeds_past_the_entry_budget_go_one_group_each(monkeypatch):
    """With no room for a second seed's rows, each seed is its own group, with the same records."""
    shape = dict(kind="general-loop", n_list=(2,), t_list=(2,), z_list=(2,), num_seeds=4)
    whole = run_experiment(ExperimentConfig(**shape))
    sizes = []
    run_seeds = harness_mod._run_seeds

    def counted(config, results, prefix, group):
        sizes.append(len(group))
        return run_seeds(config, results, prefix, group)

    monkeypatch.setattr(harness_mod, "_run_seeds", counted)
    monkeypatch.setattr(harness_mod.phase_mod, "STACK_ENTRIES", 1)
    split = run_experiment(ExperimentConfig(**shape))
    assert sizes == [1, 1, 1, 1] and split.passed
    assert ([json.dumps(r, sort_keys=True) for r in split.records]
            == [json.dumps(r, sort_keys=True) for r in whole.records])


def test_a_failed_check_in_a_grouped_pass_names_the_seed_and_regime(monkeypatch):
    """One row of the second seed of a two-seed group is broken; the error names both.

    Seeds 0 and 1 at (2, 2, 2) share their layouts, so each side's ten
    rows go in one pass; row 7 is seed 1's third regime.
    """
    svd = np.linalg.svd

    def moved(a, full_matrices=True):
        u, s, vh = svd(a, full_matrices=full_matrices)
        assert u.shape[0] == 10
        u = u.copy()
        u[7, :, 0] += 1e-6 * u[7, :, 1]
        return u, s, vh

    monkeypatch.setattr(np.linalg, "svd", moved)
    with pytest.raises(ValueError, match=r"exceeds assert_tol 1e-08 "
                                         r"in row 7 \(seed 1, regime ii-a\)$"):
        run_experiment(ExperimentConfig(kind="general-loop", n_list=(2,), t_list=(2,),
                                        z_list=(2,), num_seeds=2))


def test_a_failed_check_in_a_pooled_simple_loop_pass_names_the_size_and_marked_set(
        monkeypatch):
    """One unit of a pooled simple-loop pass is broken; the error names its n and marked set.

    simple-loop at n = 16, 64 and 80 decides its six instances in one
    pass.  The stars of n = 64 and 80 share their block layouts, and each
    row's unmarked blocks hold the same values, so those blocks are one
    SVD call of four units, one a row; the fourth is row 5, n = 80 marked.
    """
    svd = np.linalg.svd

    def moved(a, full_matrices=True):
        u, s, vh = svd(a, full_matrices=full_matrices)
        if a.shape == (4, 1, 2):
            u = u.copy()
            u[3] *= 1.0 + 1e-6
        return u, s, vh

    monkeypatch.setattr(np.linalg, "svd", moved)
    with pytest.raises(ValueError, match=r"exceeds assert_tol 1e-08 "
                                         r"in row 5 \(n 80, marked \[0\]\)$"):
        run_experiment(ExperimentConfig(kind="simple-loop", n_list=(16, 64, 80)))


def test_full_suite_collects_all_kinds():
    results = run_experiment(ExperimentConfig(kind="full-suite", **SMALL))
    kinds = {r["experiment"] for r in results.records}
    assert kinds == {"grover-weights", "simple-loop", "general-loop",
                     "bounds-compare"}
    assert results.passed


def test_emit_layout_and_round_trip(tmp_path):
    results = run_experiment(ExperimentConfig(kind="bounds-compare", **SMALL))
    emit(results, "json", tmp_path)
    emit(results, "csv", tmp_path)
    assert (tmp_path / "config.echo").exists()
    assert (tmp_path / "summary.json").exists()
    tables = list((tmp_path / "tables").glob("*.csv"))
    assert len(tables) == 1
    lines = (tmp_path / "records.jsonl").read_text().splitlines()
    assert len(lines) == len(results.records)
    for line, record in zip(lines, results.records):
        parsed = json.loads(line)
        assert parsed == json.loads(json.dumps(record))
        assert "wall_time" not in line  # timing lives in summary.json only
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["passed"] and summary["record_count"] == len(lines)
    assert summary["wall_time_s"] >= 0.0


def test_csv_rows_keep_header_width_when_fields_contain_commas(tmp_path):
    results = ResultSet(config=ExperimentConfig(kind="bounds-compare", **SMALL))
    results.add("bounds-compare", {"seed": 0, "l2": 1.5}, True)
    error = 'ordering violated: l2=3.0, l1=2.0, "naive"=1.0'
    results.add("bounds-compare", {"seed": 1, "error": error}, False)
    emit(results, "csv", tmp_path)
    with (tmp_path / "tables" / "bounds-compare.csv").open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["passed", "error", "l2", "seed"]
    assert [len(row) for row in rows] == [len(header)] * 2
    assert dict(zip(header, rows[1])) == {"passed": "False", "error": error,
                                          "l2": "", "seed": "1"}


def test_broken_bound_ordering_is_a_failed_record(l2_above_l1):
    """A seed whose l2 lies above l1 keeps its bound values and fails."""
    config = ExperimentConfig(kind="bounds-compare", n_list=(8,), num_seeds=1)
    record, = run_experiment(config).records
    payload = record["payload"]
    assert not record["passed"]
    assert payload["l2"] > payload["l1"]
    assert set(payload) == {"seed", "n", "times", "l2", "l1", "l0",
                            "straight_line", "naive"}


def test_emit_rejects_bad_input(tmp_path):
    empty = ResultSet(config=ExperimentConfig(kind="bounds-compare", **SMALL))
    with pytest.raises(ValueError):
        emit(empty, "json", tmp_path)
    results = run_experiment(ExperimentConfig(kind="bounds-compare", **SMALL))
    with pytest.raises(ValueError):
        emit(results, "xml", tmp_path)


def test_records_byte_identical_across_runs(tmp_path):
    for sub in ("one", "two"):
        cfg = ExperimentConfig(kind="full-suite",
                               output_dir=str(tmp_path / sub), **SMALL)
        run_experiment(cfg)
    a = (tmp_path / "one" / "records.jsonl").read_bytes()
    b = (tmp_path / "two" / "records.jsonl").read_bytes()
    assert a == b and len(a) > 0


def test_float_encoding_round_trips(tmp_path):
    cfg = ExperimentConfig(kind="bounds-compare",
                           output_dir=str(tmp_path), **SMALL)
    results = run_experiment(cfg)
    lines = (tmp_path / "records.jsonl").read_text().splitlines()
    for line, record in zip(lines, results.records):
        parsed = json.loads(line)
        assert parsed["payload"]["l2"] == record["payload"]["l2"]  # exact


def test_cli_exit_codes_and_output(tmp_path, capsys):
    code = main(["bounds", "--n", "4", "--num-seeds", "2",
                 "--out", str(tmp_path), "--format", "json", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    summary = json.loads(out.splitlines()[-1])
    assert summary["passed"] and summary["kind"] == "bounds-compare"
    assert (tmp_path / "records.jsonl").exists()
    assert (tmp_path / "tables" / "bounds-compare.csv").exists()


def test_cli_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        main(["not-a-command"])


@pytest.mark.parametrize("argv", [
    ["general-loop", "--steps", "1"],
    ["bounds", "--num-seeds", "0"],
    ["general-loop", "--workspace", "0"],
    ["simple-loop", "--n", "1"],
    ["suite", "--n", "1"],
    ["general-loop", "--assert-tol", "inf"],
])
def test_cli_invalid_values_are_usage_errors(argv, capsys):
    """Exit 2 before anything runs, as distinct from 1 for a failed record."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_config_rejects_sizes_below_one_and_oracle_domains_below_two():
    for field in ("n_list", "t_list", "z_list"):
        with pytest.raises(ValueError, match="at least 1"):
            ExperimentConfig(kind="bounds-compare", **{field: (4, 0)})
        # an empty list would run no record and pass, or fail in rng.choice
        for kind in EXPERIMENT_KINDS:
            with pytest.raises(ValueError, match=f"{field} must not be empty"):
                ExperimentConfig(kind=kind, **{field: ()})
    for kind in ("grover-weights", "simple-loop", "full-suite"):
        with pytest.raises(ValueError, match="at least 2"):
            ExperimentConfig(kind=kind, n_list=(1, 4))
    ExperimentConfig(kind="general-loop", n_list=(1,))
    ExperimentConfig(kind="bounds-compare", n_list=(1,))


def test_config_from_args_rejects_a_negative_seed(capsys):
    """A negative seed is a usage error, not a traceback from default_rng."""
    for argv in (["general-loop", "--seed", "-1"], ["bounds", "--seed", "-3"]):
        with pytest.raises(SystemExit) as exc:
            config_from_args(argv)
        assert exc.value.code == 2
        assert "seed must be nonnegative" in capsys.readouterr().err
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        ExperimentConfig(kind="grover-weights", seed=-1)
    assert config_from_args(["general-loop", "--seed", "0"]).seed == 0


def test_cli_general_loop_on_one_input_still_runs(capsys):
    assert main(["general-loop", "--n", "1", "--num-seeds", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["records"] == 2 * len(REGIMES)


def test_cli_repeated_list_flags_accumulate():
    config = config_from_args([
        "suite", "--n", "4", "--n", "16", "--steps", "2", "--steps", "4",
        "--workspace", "2", "--workspace", "4", "--regimes", "i-a",
        "--regimes", "ii-b", "ii-c", "--format", "json", "--format", "csv"])
    assert config.n_list == (4, 16)
    assert config.t_list == (2, 4)
    assert config.z_list == (2, 4)
    assert config.regimes == ("i-a", "ii-b", "ii-c")
    assert config.formats == ("json", "csv")


def test_cli_defaults_and_config_digest_unchanged():
    default = config_from_args(["general-loop"])
    assert default.n_list == (4, 16)
    assert default.t_list == (2, 4)
    assert default.z_list == (2, 4)
    assert default.regimes == tuple(REGIMES)
    assert default.formats == ("json",)
    spelled = config_from_args(["general-loop", "--n", "4", "16", "--steps",
                                "2", "4", "--workspace", "2", "4"])
    repeated = config_from_args(["general-loop", "--n", "4", "--n", "16"])
    assert default.digest() == spelled.digest() == repeated.digest()
    # every record of a default run carries this digest, so a drift in the
    # CLI's defaults shows here
    assert default.digest() == (
        "b2f68b8ebb8ddd257256226151e4e4fb8f33dc1de0286b540742180f13903808")


def test_import_and_suite_run_leave_scipy_stats_unloaded(tmp_path):
    """No scipy module at all: not on import, nor in a suite or general-loop run."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "def check(when):\n"
        "    loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "    assert not loaded, f'{when} loaded {loaded[:5]}'\n"
        "import vtsearch\n"
        "from vtsearch import cli\n"
        "check('import vtsearch')\n"
        "small = ['--n', '2', '--steps', '2', '--workspace', '2', '--num-seeds', '1']\n"
        "for kind in ('suite', 'general-loop'):\n"
        "    status = cli.main([kind, *small, '--out', f'{sys.argv[1]}/{kind}'])\n"
        "    assert status == 0\n"
        "    check(kind)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_export_list_resolves_once_each_and_star_import_warns_nothing():
    """No name in vtsearch.__all__ repeats, and import * runs under -W error.

    import * raises AttributeError on a listed name the package lacks.
    """
    import vtsearch
    assert len(vtsearch.__all__) == len(set(vtsearch.__all__))
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-W", "error", "-c", "from vtsearch import *"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_only_the_two_pinned_methods_take_a_tolerance_policy():
    """Every check reads DEFAULT_TOL; no caller can pass a looser policy.

    The two methods that still take tol refuse any policy but DEFAULT_TOL.
    """
    import vtsearch
    from vtsearch import (OracleSpec, TolerancePolicy, build_simple_instance,
                          simple_witnesses, verify_witnesses)

    def callables():
        for name in vtsearch.__all__:
            obj = getattr(vtsearch, name)
            if inspect.isclass(obj):
                # a dataclass's generated __init__ is among its own functions
                for attr in vars(obj):
                    member = getattr(obj, attr)
                    if inspect.isfunction(member) or inspect.ismethod(member):
                        yield f"{name}.{attr}", member
            elif callable(obj):
                yield name, obj

    takes_tol = sorted(label for label, fn in callables()
                       if "tol" in inspect.signature(fn).parameters)
    assert takes_tol == ["PEInstance.well_formedness_report", "verify_witnesses"]
    assert "assert_tol" not in inspect.signature(ExperimentConfig).parameters

    oracle = OracleSpec(size=4, marked=frozenset({0}))
    instance = build_simple_instance(oracle, 4.0)
    witness = simple_witnesses(oracle, 4.0)
    loose = TolerancePolicy(assert_tol=1.0)
    with pytest.raises(ValueError, match="only DEFAULT_TOL"):
        instance.well_formedness_report(loose)
    with pytest.raises(ValueError, match="only DEFAULT_TOL"):
        verify_witnesses(instance, witness, loose)
    assert instance.well_formedness_report()["passed"]
    assert verify_witnesses(instance, witness).passed()
