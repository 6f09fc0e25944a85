"""Reproducible experiment runner.

Every experiment is a pure function of (config, seed): generation uses
numpy's default_rng (PCG64), records are serialized with sorted keys and
shortest-round-trip float encoding (17 significant decimal digits
suffice to re-parse exactly), and the config digest is the SHA-256 of
the canonical config JSON.  Wall time is reported in the run summary
only, never inside the record stream, so identical configs yield
byte-identical record files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import grover as grover_mod
from . import instances as inst_mod
from . import phase as phase_mod
from . import subroutines as subs_mod
from .linalg import DEFAULT_TOL

EXPERIMENT_KINDS = ("grover-weights", "simple-loop", "general-loop",
                    "bounds-compare", "full-suite")
OUTPUT_FORMATS = ("json", "csv")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    n_list: tuple[int, ...] = (4, 16)
    t_list: tuple[int, ...] = (2, 4)
    z_list: tuple[int, ...] = (2, 4)
    regimes: tuple[str, ...] = inst_mod.REGIMES
    seed: int = 0
    num_seeds: int = 10
    output_dir: str | None = None
    formats: tuple[str, ...] = ("json",)

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        for r in self.regimes:
            if r not in inst_mod.REGIMES:
                raise ValueError(f"unknown regime {r!r}")
        if self.kind in ("general-loop", "full-suite") and not self.regimes:
            raise ValueError(f"{self.kind} needs at least one regime")
        for fmt in self.formats:
            if fmt not in OUTPUT_FORMATS:
                raise ValueError(f"unknown output format {fmt!r}")
        if self.num_seeds < 1:
            raise ValueError("need at least one seed")
        if self.seed < 0:
            raise ValueError("the seed must be nonnegative")
        for name in ("n_list", "t_list", "z_list"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        if any(v < 1 for v in (*self.n_list, *self.t_list, *self.z_list)):
            raise ValueError("n, steps and workspace entries must be at least 1")
        # these kinds build an OracleSpec, whose domain has at least 2 elements
        if (self.kind in ("grover-weights", "simple-loop", "full-suite")
                and any(n < 2 for n in self.n_list)):
            raise ValueError(f"{self.kind} needs n_list entries of at least 2")
        if (self.kind in ("general-loop", "full-suite")
                and not any(t >= 2 for t in self.t_list)):
            raise ValueError("general-loop needs a t_list entry of at least 2")

    def canonical_json(self) -> str:
        """Canonical form of the experiment inputs.

        Emission details (output_dir, formats) are excluded: where the
        records land must not change what the records say.
        """
        payload = asdict(self)
        payload.pop("output_dir")
        payload.pop("formats")
        payload = {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in payload.items()}
        return json.dumps(payload, sort_keys=True)

    @cached_property
    def _digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def digest(self) -> str:
        """SHA-256 of canonical_json(), computed once per config (it is frozen)."""
        return self._digest


@dataclass
class ResultSet:
    config: ExperimentConfig
    records: list[dict] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.get("passed", False) for r in self.records)

    def add(self, experiment: str, payload: dict, passed: bool):
        self.records.append({
            "experiment": experiment,
            "config_digest": self.config.digest(),
            "passed": bool(passed),
            "payload": payload,
        })


def run_experiment(config: ExperimentConfig) -> ResultSet:
    start = time.monotonic()
    results = ResultSet(config=config)
    dispatch = {
        "grover-weights": _run_grover_weights,
        "simple-loop": _run_simple_loop,
        "general-loop": _run_general_loop,
        "bounds-compare": _run_bounds_compare,
    }
    if config.kind == "full-suite":
        for kind, fn in dispatch.items():
            fn(config, results, prefix=kind)
    else:
        dispatch[config.kind](config, results, prefix=config.kind)
    results.wall_time_s = time.monotonic() - start
    if config.output_dir is not None:
        for fmt in config.formats:
            emit(results, fmt, Path(config.output_dir))
    return results


def _run_grover_weights(config, results, prefix):
    for n in config.n_list:
        oracle = grover_mod.OracleSpec(size=n, marked=frozenset({0}))
        table = grover_mod.query_weights(oracle)
        col_resid = table.column_sum_residual()
        # the residual is taken in place: one N x Q temporary, not three
        closed = grover_mod.closed_form_weights(n, 0)
        np.subtract(table.q, closed, out=closed)
        closed_resid = float(np.abs(closed, out=closed).max())
        if n >= 4:
            cos_sum, cos_bound = grover_mod.lagrange_cos_sum(n)
        else:
            cos_sum, cos_bound = 0.0, 0.0
        passed = (col_resid <= 1e-12 and closed_resid <= 1e-10
                  and (n < 16 or abs(cos_sum) <= cos_bound + 1e-9))
        results.add(f"{prefix}", {
            "n": n, "num_queries": table.num_queries,
            "column_sum_residual": col_resid,
            "closed_form_residual": closed_resid,
            "lagrange_sum": cos_sum, "lagrange_bound": cos_bound,
            "q_bar": table.q_bar.tolist(),
        }, passed)


def _run_simple_loop(config, results, prefix):
    """Every (n, marked) instance of the config, tied into one stack, records in order.

    The first decision takes the spectra of every instance in one pass of
    the decision engine (or in as many as its budget needs); each row is
    named by its size and marked set in the errors of the decision's
    checks.
    """
    cases = []
    for n in config.n_list:
        omega = float(n)  # promise of at least one marked element
        for marked in (frozenset(), frozenset({0})):
            oracle = grover_mod.OracleSpec(size=n, marked=marked)
            cases.append((n, marked, omega, oracle,
                          inst_mod.build_simple_instance(oracle, omega)))
    inst_mod.InstanceStack([case[-1] for case in cases],
                           [f"n {n}, marked {sorted(marked)}" for n, marked, *_ in cases])
    for n, marked, omega, oracle, instance in cases:
        wf = instance.well_formedness_report()
        witness = inst_mod.simple_witnesses(oracle, omega)
        report = inst_mod.verify_witnesses(instance, witness)
        c_minus = 1.0 + 3.0 * omega
        decision = phase_mod.decide(instance, c_minus=c_minus, c_plus=4.0)
        refl_resid = phase_mod.verify_reflection_factorization(instance)
        expect = "positive" if marked else "negative"
        passed = (wf["passed"] and report.passed()
                  and decision.verdict == expect
                  and refl_resid <= DEFAULT_TOL.assert_tol)
        results.add(prefix, {
            "n": n, "marked": sorted(marked), "omega": omega,
            "witness": report.to_jsonable(),
            # the decision's scalar fields, without asdict's deep copy
            "decision": {f.name: getattr(decision, f.name) for f in fields(decision)},
            "reflection_residual": refl_resid,
            "well_formed": wf,
        }, passed)


def _run_general_loop(config, results, prefix):
    """Each seed's regime records, consecutive seeds decided together.

    A seed joins the seeds before it while the group's rows, every regime
    of both sides, fit one pass of the decision engine: their
    phase.row_entries, summed, within phase.STACK_ENTRIES.  So seeds of
    any shapes share a pass, and a shape whose rows take a pass of their
    own goes seed by seed.  The group's specs share their layouts where
    they match (one general_layouts call over the group and the new
    seed), every group is decided in its stack's passes, and its records
    are emitted in seed order.
    """
    group, entries = [], 0
    for idx in range(config.num_seeds):
        seed = config.seed + idx
        rng = np.random.default_rng(seed)
        n = int(rng.choice(config.n_list))
        t_max = int(rng.choice([t for t in config.t_list if t >= 2]))
        workspace = int(rng.choice(config.z_list))
        specs = subs_mod.subroutine_pair(seed, n, t_max, workspace)
        layouts = inst_mod.general_layouts([spec for _, pair in group for spec in pair]
                                           + list(specs))
        need = len(config.regimes) * sum(phase_mod.row_entries(layout.structure)
                                         for layout in layouts[-2:])
        if group and entries + need > phase_mod.STACK_ENTRIES:
            _run_seeds(config, results, prefix, group)
            group, entries = [], 0
        group.append(((seed, n, t_max, workspace), specs))
        entries += need
    _run_seeds(config, results, prefix, group)


def _run_seeds(config, results, prefix, group):
    """The records of a group of seeds, decided together, in seed order."""
    seeds = phase_mod.regime_pairs_of([specs for _, specs in group], config.regimes,
                                      names=[f"seed {seed}" for (seed, *_), _ in group])
    for ((seed, n, t_max, workspace), _), pairs in zip(group, seeds):
        for pair in pairs:
            pos, neg = pair.positive, pair.negative
            neg_norm = inst_mod.fsum_norm_sq(neg.w_a)
            verdicts = {label: decision.verdict
                        for label, decision in pair.decide().items()}
            payload = {
                "seed": seed, "n": n, "t_max": t_max, "workspace": workspace,
                "regime": pair.regime,
                "pos_norm_sq": pair.c_plus, "pos_norm_closed": pos.closed_norm_sq,
                "neg_norm_sq": neg_norm, "neg_norm_closed": neg.closed_norm_sq,
                "c_plus_effective": pair.c_plus, "c_plus_cap": pair.c_plus_cap,
                "verdicts": verdicts, "c_minus": pair.c_minus,
                "c_plus_decide": pair.c_plus_decide,
            }
            passed = (abs(pair.c_plus - pos.closed_norm_sq) <= DEFAULT_TOL.assert_tol
                      and abs(neg_norm - neg.closed_norm_sq) <= DEFAULT_TOL.assert_tol
                      and pair.c_plus <= pair.c_plus_cap + 1e-9
                      and verdicts == {"marked": "positive",
                                       "empty": "negative"})
            results.add(prefix, payload, passed)


def _run_bounds_compare(config, results, prefix):
    for idx in range(config.num_seeds):
        seed = config.seed + idx
        rng = np.random.default_rng(seed)
        n = int(rng.choice(config.n_list))
        times = rng.integers(1, 9, size=n).astype(float)
        profile = grover_mod.CostProfile.deterministic(times)
        promise = bounds_mod.PromiseDescriptor(unique_marked=True,
                                               t_max=float(np.max(times)))
        comparison = bounds_mod.compare_table(profile, promise)
        results.add(prefix, {
            "seed": seed, "n": n, "times": [float(x) for x in times],
            "l2": comparison.l2, "l1": comparison.l1, "l0": comparison.l0,
            "straight_line": comparison.straight_line,
            "naive": comparison.naive,
        }, comparison.ordering_holds)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def emit(results: ResultSet, fmt: str, outdir: Path) -> list[Path]:
    """Write records to disk; JSON lines plus per-experiment CSV tables."""
    if not results.records:
        raise ValueError("refusing to emit an empty result set")
    if fmt not in OUTPUT_FORMATS:
        raise ValueError(f"unknown output format {fmt!r}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    echo = outdir / "config.echo"
    echo.write_text(results.config.canonical_json() + "\n")
    written.append(echo)

    if fmt == "json":
        path = outdir / "records.jsonl"
        with path.open("w") as fh:
            for record in results.records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        written.append(path)
        summary = outdir / "summary.json"
        summary.write_text(json.dumps({
            "passed": results.passed,
            "record_count": len(results.records),
            "wall_time_s": results.wall_time_s,
            "config_digest": results.config.digest(),
        }, sort_keys=True) + "\n")
        written.append(summary)
    else:
        tables = outdir / "tables"
        tables.mkdir(exist_ok=True)
        by_kind: dict[str, list[dict]] = {}
        for record in results.records:
            by_kind.setdefault(record["experiment"], []).append(record)
        for kind, records in by_kind.items():
            path = tables / f"{kind}.csv"
            keys = sorted({k for r in records for k in r["payload"]
                           if isinstance(r["payload"][k], (int, float, str))})
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["passed"] + keys)
                writer.writerows([r["passed"]] + [str(r["payload"].get(k, ""))
                                                  for k in keys] for r in records)
            written.append(path)
    return written
