"""Seeded synthetic cohorts for the benchmark.

Every cohort is built from the package's own generators (`draw_population`,
`synth_trace`, `write_trace_csv`), so the benchmark downloads nothing and
the same seed always gives byte-identical trace files. A cohort is a
directory of `<participant>_<trial>.gaze.csv` / `.head.csv` pairs, the layout
`eyehead preprocess --in-dir` reads.

Why these three (bench/workloads.json records the same, with input sizes):

* `study` is the baseline study shape: many participants with short trials,
  so per-participant fitting (many small least-squares problems) dominates.
* `long-trials` has few participants with long trials, so CSV parsing and the
  per-sample 1-Euro filter dominate and each fit is one large problem.
* `uneven-cohort` has unequal trial counts per participant (unequal fit
  problem sizes) and three injected faults that exercise the sanity-fail
  path of ingest.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import numpy as np

# A synthetic trial with n shifts lasts (n + 1) * 0.4 + n * 0.15 seconds:
# 27.9 s for 50 shifts, longer than the default 25 s overlap gate.
SHORT_OVERLAP_CUT_S = 20.0
DISCONTINUITY_GAP_S = (10.0, 11.0)
FAULT_REASONS = ("missing_stream", "short_overlap", "discontinuity")


@dataclass(frozen=True)
class Cohort:
    name: str
    participants: int
    shifts_per_trial: int
    # trials per participant, indexed by participant position
    trials: tuple[int, ...]
    inject_faults: bool = False

    @property
    def trial_pairs(self) -> int:
        return sum(self.trials)


def _uneven_trials(n: int) -> tuple[int, ...]:
    return tuple(1 + (5 * i) % 8 for i in range(n))


# With fewer participants the seed moves the solver's work by more than the
# benchmark's bounds: over ten seeds, the quartiles of the fit's residual
# evaluations sit about 10% apart with 24 or 16 participants, and much
# further apart with 8.
# long-trials has half the trials of the ROADMAP's long-trial shape, so that
# a run holds several passes; its few large fits vary little with the seed.
COHORTS = {
    "study": Cohort("study", 24, 50, (2,) * 24),
    "long-trials": Cohort("long-trials", 3, 300, (4,) * 3),
    "uneven-cohort": Cohort("uneven-cohort", 16, 50, _uneven_trials(16), inject_faults=True),
}


def scaled(cohort: Cohort, participants: int, shifts_per_trial: int, max_trials: int) -> Cohort:
    """A smaller cohort of the same shape, for smoke tests."""
    trials = tuple(min(t, max_trials) for t in cohort.trials[:participants])
    return Cohort(cohort.name, len(trials), shifts_per_trial, trials, cohort.inject_faults)


def fault_plan(cohort: Cohort, seed: int) -> dict[tuple[str, str], str]:
    """(participant, trial) -> injected fault reason, chosen from the seed.

    Each fault hits a different participant that has at least two trials, so
    every participant keeps at least one passing trial and is still fit.
    """
    if not cohort.inject_faults:
        return {}
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6661756C74]))
    eligible = [i for i, n in enumerate(cohort.trials) if n >= 2]
    if len(eligible) < len(FAULT_REASONS):
        raise ValueError(f"{cohort.name}: too few multi-trial participants for the faults")
    chosen = rng.choice(eligible, size=len(FAULT_REASONS), replace=False)
    plan = {}
    for reason, i in zip(FAULT_REASONS, sorted(int(c) for c in chosen)):
        trial = int(rng.integers(cohort.trials[i]))
        plan[(f"synth{i + 1:03d}", f"t{trial + 1:02d}")] = reason
    return plan


def _inject(reason: str, gaze, head):
    """Apply one fault to a trial's streams; None means the file is not written."""
    if reason == "missing_stream":
        return gaze, None
    if reason == "short_overlap":
        keep = head.t <= SHORT_OVERLAP_CUT_S
        return gaze, dataclasses.replace(head, t=head.t[keep], yaw=head.yaw[keep])
    if reason == "discontinuity":
        lo, hi = DISCONTINUITY_GAP_S
        keep = (gaze.t <= lo) | (gaze.t >= hi)
        return dataclasses.replace(gaze, t=gaze.t[keep], yaw=gaze.yaw[keep]), head
    raise ValueError(f"unknown fault {reason!r}")


def generate(cohort: Cohort, seed: int, out_dir: str) -> dict:
    """Write the cohort's trace CSVs under out_dir; return truth and sizes.

    The returned dict holds the generating soft-hinge parameters per
    participant (`truth`), the injected faults, and the input sizes
    (participants, trials per participant, trial pairs, CSV files, rows and
    bytes). A trial pair is one gaze file and its head file, which a fault
    may have removed.
    """
    from eyehead import SynthConfig, draw_population, synth_trace
    from eyehead.ingest import write_trace_csv

    os.makedirs(out_dir, exist_ok=True)
    faults = fault_plan(cohort, seed)
    truth = {}
    rows = 0
    files = 0
    for i, (pid, params) in enumerate(draw_population(cohort.participants, seed=seed)):
        truth[pid] = {"beta": params.beta, "tau": params.tau, "s": params.s}
        for j in range(cohort.trials[i]):
            trial_id = f"t{j + 1:02d}"
            cfg = SynthConfig(
                params=params,
                n_shifts=cohort.shifts_per_trial,
                seed=seed,
                participant_id=pid,
                trial_id=trial_id,
                wrap_output=True,
            )
            gaze, head, _ = synth_trace(cfg)
            reason = faults.get((pid, trial_id))
            if reason:
                gaze, head = _inject(reason, gaze, head)
            stem = os.path.join(out_dir, f"{pid}_{trial_id}")
            for suffix, stream in ((".gaze.csv", gaze), (".head.csv", head)):
                if stream is not None:
                    write_trace_csv(stem + suffix, stream)
                    rows += int(stream.t.size)
                    files += 1
    csv_bytes = sum(
        os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)
    )
    return {
        "truth": truth,
        "faults": [
            {"participant_id": p, "trial_id": t, "reason": r}
            for (p, t), r in sorted(faults.items())
        ],
        "sizes": {
            "participants": cohort.participants,
            "trials_per_participant": [min(cohort.trials), max(cohort.trials)],
            "trial_pairs": cohort.trial_pairs,
            "csv_files": files,
            "csv_rows": rows,
            "csv_bytes": csv_bytes,
        },
    }
