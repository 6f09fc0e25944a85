"""The benchmark's workloads: inputs made from a seed, one batch, checks.

Each workload turns the benchmark seed into a fixed batch of experiment
inputs, runs the batch through the public ``vtsearch`` functions, and
leaves its records as ``records.jsonl`` files.  The runner checks every
emitted line with :func:`check_record` and compares it byte for byte with
the same batch's first repetition.  Why each workload exists is in
``README.md`` beside this file.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from vtsearch import bounds, grover, harness, instances, phase, subroutines
from vtsearch.harness import ExperimentConfig
from vtsearch.instances import REGIMES, PEInstance
from vtsearch.linalg import DEFAULT_TOL

from spans import Target

ASSERT_TOL = DEFAULT_TOL.assert_tol

#: general-decide: seeds per batch at the roadmap's fixed (n, T, Z) = (2, 2, 2)
GENERAL_SEEDS_PER_BATCH = 2
#: simple-sweep: domain sizes (d = 8 (n + 1) = 136, 520, 648)
SIMPLE_SIZES = (16, 64, 80)
#: closed-form-scale: (n, T, Z) shapes past the harness's d <= 600 decision gate
CLOSED_FORM_SHAPES = ((4, 4, 4), (16, 2, 2))
GROVER_SIZES = (1024, 2048)
BOUNDS_SEEDS = 10

#: a small run of every experiment kind, untimed, to pay lazy set-up
WARMUP = ExperimentConfig(kind="full-suite", n_list=(2,), t_list=(2,),
                          z_list=(2,), regimes=("i-a",), num_seeds=1)


def run_configs(configs, outdir: Path) -> list[Path]:
    """Run each config with its records emitted under ``outdir/<index>``."""
    paths = []
    for index, config in enumerate(configs):
        out = outdir / str(index)
        harness.run_experiment(dataclasses.replace(config, output_dir=str(out)))
        paths.append(out / "records.jsonl")
    return paths


def general_decide_inputs(seed: int) -> dict:
    return {"configs": (ExperimentConfig(
        kind="general-loop", n_list=(2,), t_list=(2,), z_list=(2,),
        seed=seed * GENERAL_SEEDS_PER_BATCH,
        num_seeds=GENERAL_SEEDS_PER_BATCH),)}


def simple_sweep_inputs(seed: int) -> dict:
    # simple-loop draws nothing at random: the seed only enters the digest
    return {"configs": (ExperimentConfig(kind="simple-loop",
                                         n_list=SIMPLE_SIZES, seed=seed),)}


def closed_form_inputs(seed: int) -> dict:
    pair_seeds = [seed * len(CLOSED_FORM_SHAPES) + j
                  for j in range(len(CLOSED_FORM_SHAPES))]
    return {
        "pairs": tuple(zip(pair_seeds, CLOSED_FORM_SHAPES)),
        "configs": (
            ExperimentConfig(kind="grover-weights", n_list=GROVER_SIZES, seed=seed),
            ExperimentConfig(kind="bounds-compare", seed=seed,
                             num_seeds=BOUNDS_SEEDS),
        ),
    }


def experiment_batch(inputs: dict, outdir: Path) -> list[Path]:
    return run_configs(inputs["configs"], outdir)


def closed_form_pair(seed: int, n: int, t_max: int, workspace: int):
    """Marked/empty subroutines with no step-1 halting mass, as the harness draws them."""
    fractions = np.zeros(t_max)
    fractions[1:] = 1.0 / (t_max - 1)
    marked = subroutines.random_subroutine(seed, n, t_max, workspace,
                                           halting_fractions=fractions,
                                           marked=(0,))
    empty = subroutines.random_subroutine(seed + 10_000, n, t_max, workspace,
                                          halting_fractions=fractions,
                                          marked=())
    return marked, empty


def _moments(spec) -> tuple[np.ndarray, np.ndarray]:
    profiles = [subroutines.stopping_profile(spec, i)
                for i in range(spec.num_inputs)]
    return (np.array([p.moments()[0] for p in profiles]),
            np.array([p.moments()[1] for p in profiles]))


def closed_form_records(seed: int, n: int, t_max: int, workspace: int) -> list[dict]:
    """Decision-free checks of one marked/empty pair across all regimes."""
    marked, empty = closed_form_pair(seed, n, t_max, workspace)
    moments_m, moments_e = _moments(marked), _moments(empty)
    records = []
    for regime in REGIMES:
        w_pos = instances.regime_parameters(regime, *moments_m, t_max, marked=(0,))
        w_neg = instances.regime_parameters(regime, *moments_e, t_max,
                                            mu=w_pos.mu, k=w_pos.k)
        payload = {"seed": seed, "n": n, "t_max": t_max,
                   "workspace": workspace, "regime": regime}
        for side, spec, weights, witness in (
                ("positive", marked, w_pos,
                 instances.general_positive_witness(marked, w_pos)),
                ("negative", empty, w_neg,
                 instances.general_negative_witness(empty, w_neg))):
            instance = instances.build_general_instance(spec, weights)
            payload[side] = {
                "dim": instance.dim,
                "well_formed": instance.well_formedness_report(DEFAULT_TOL),
                "witness": instances.verify_witnesses(
                    instance, witness, DEFAULT_TOL).to_jsonable(),
            }
        passed = _witness_ok(payload["positive"]) and _witness_ok(payload["negative"])
        records.append({"experiment": "closed-form-scale", "passed": passed,
                        "payload": payload})
    return records


def closed_form_batch(inputs: dict, outdir: Path) -> list[Path]:
    path = outdir / "pairs" / "records.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for seed, shape in inputs["pairs"]:
            for record in closed_form_records(seed, *shape):
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    return [path] + run_configs(inputs["configs"], outdir)


def _witness_ok(side: dict) -> bool:
    w = side["witness"]
    worst = max(w["residual_a"], w["residual_b"], w["decomposition_residual"],
                abs(w["norm_sq_measured"] - w["norm_sq_closed"]))
    return bool(side["well_formed"]["passed"] and worst <= ASSERT_TOL)


def check_record(record: dict) -> bool:
    """The benchmark's own verdict on one emitted record.

    Beyond the record's ``passed`` flag: marked instances must decide
    positive and empty ones negative, every general-loop record must carry
    verdicts, and closed-form witnesses must match their closed-form norms
    within the harness tolerance.
    """
    if not record["passed"]:
        return False
    payload = record["payload"]
    kind = record["experiment"]
    if kind == "general-loop":
        return payload.get("verdicts") == {"marked": "positive", "empty": "negative"}
    if kind == "simple-loop":
        expect = "positive" if payload["marked"] else "negative"
        return payload["decision"]["verdict"] == expect
    if kind == "closed-form-scale":
        return _witness_ok(payload["positive"]) and _witness_ok(payload["negative"])
    return True


def evaluate(lines: list[str], reference: list[str] | None) -> tuple[int, int]:
    """(attempted, failed) for one repetition's emitted record lines.

    A record fails when its check fails or when its line differs from the
    reference repetition's; reference records missing here fail too.
    """
    if reference is None:
        reference = lines
    failed = sum(1 for i, line in enumerate(lines)
                 if i >= len(reference) or line != reference[i]
                 or not check_record(json.loads(line)))
    missing = max(0, len(reference) - len(lines))
    return max(len(lines), len(reference)), failed + missing


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], dict]
    batch: Callable[[dict, Path], list[Path]]


WORKLOADS = {w.name: w for w in (
    Workload("general-decide", general_decide_inputs, experiment_batch),
    Workload("simple-sweep", simple_sweep_inputs, experiment_batch),
    Workload("closed-form-scale", closed_form_inputs, closed_form_batch),
)}


def _count(name: str, how: str, value: Callable) -> Callable:
    return lambda args, kwargs, result: {name: (value(args, result), how)}


def trace_targets() -> list[Target]:
    """Every layer boundary, wrapped where its caller looks it up."""
    return [
        Target(harness, "run_experiment", "harness.run_experiment"),
        Target(harness, "emit", "harness.emit"),
        Target(subroutines, "random_subroutine", "subroutines.random_subroutine"),
        Target(subroutines, "stopping_profile", "subroutines.stopping_profile"),
        # history_states reaches stopping_profile through the instances module
        Target(instances, "stopping_profile", "subroutines.stopping_profile"),
        Target(instances, "regime_parameters", "instances.regime_parameters"),
        Target(instances, "build_simple_instance", "instances.build_simple_instance"),
        Target(instances, "build_general_instance", "instances.build_general_instance",
               _count("instances.build_general_instance.generators", "sum",
                      lambda a, r: len(r.generators("A")) + len(r.generators("B")))),
        Target(instances, "simple_witnesses", "instances.simple_witnesses"),
        Target(instances, "general_positive_witness", "instances.general_positive_witness"),
        Target(instances, "general_negative_witness", "instances.general_negative_witness"),
        Target(instances, "verify_witnesses", "instances.verify_witnesses"),
        Target(PEInstance, "well_formedness_report", "instances.well_formedness_report"),
        Target(PEInstance, "projector", "instances.projector"),
        Target(PEInstance, "walk_unitary", "instances.walk_unitary",
               _count("instances.walk_unitary.dim_cubed_sum", "sum",
                      lambda a, r: a[0].dim ** 3)),
        Target(instances, "projector_from_set", "linalg.projector_from_set",
               _count("linalg.projector_from_set.vectors", "sum",
                      lambda a, r: len(a[0]))),
        Target(phase, "unitary_eig", "linalg.unitary_eig",
               _count("linalg.unitary_eig.dim_cubed_sum", "sum",
                      lambda a, r: np.shape(a[0])[0] ** 3)),
        Target(phase, "decide", "phase.decide",
               _count("phase.decide.dim_max", "max", lambda a, r: a[0].dim)),
        Target(phase, "verify_reflection_factorization",
               "phase.verify_reflection_factorization"),
        Target(grover, "query_weights", "grover.query_weights"),
        Target(bounds, "compare_table", "bounds.compare_table"),
    ]


#: work counts the traced run reports, all computed from call arguments
COUNTERS = (
    "linalg.unitary_eig.dim_cubed_sum",
    "instances.walk_unitary.dim_cubed_sum",
    "linalg.projector_from_set.vectors",
    "instances.build_general_instance.generators",
    "phase.decide.dim_max",
)
