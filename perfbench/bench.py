"""Trial-replay benchmark of genchol verification campaigns.

A campaign seeded ``S`` draws trial ``t`` from a generator seeded ``S ^ t``,
so a standalone campaign ``EnsembleConfig(trials=1, seed=S ^ t)`` draws
exactly the inputs of that trial.  The benchmark replays campaigns one trial
at a time through the public API: each trial is one timed operation, and a
trial that raises is counted by exception type instead of ending the run.
Replayed records get their campaign ``trial``/``seed`` back, and the timed
phase ends by emitting the campaign CSV with ``harness.emit_report``.

The load is a closed loop: one client, one process, BLAS pinned to one
thread.  ``run.py`` is the command line.

A run warms up on a disjoint campaign seed, then replays the workload's
fixed set of ``trials`` campaign trials in passes: at least ``MIN_PASSES``
whole ones, and more until ``--seconds`` is spent, the last one cut off at
that time.  The trials, and so ``attempted`` and ``failed``, depend on the
seed alone, never on speed.  Every whole pass must emit the same CSV.

The machine is shared.  Its speed swings by a quarter over a few seconds, and
by up to 1.8x over spells of a minute or more.  Each replay is therefore
scaled to host speed (``hostspeed.py``: reference milliseconds, ``ref_ms``),
and each trial's time is the fastest of its scaled replays, which spread over
the whole run.  The unscaled figures are printed as a note.

End-to-end metrics (untraced run):
  setup_s               wall time of fresh interpreters importing genchol.cli,
                        s on the reference host of hostspeed.py
  trials_per_s          completed trials / (sum of trial times + CSV emission),
                        per reference second
  trial_ms_p50, _p90    wall time of completed trials, ref_ms
  cpu_ms_per_trial      process CPU time of all trials and the emission /
                        completed, ref_ms of kernel CPU time
  completed_trial_frac  completed / attempted (failed_trial_frac is printed as a
                        note: being zero on two workloads, it cannot carry a bound)
  peak_rss_mb           peak resident memory of the benchmark process
A traced run (``--trace 1``) traces the first pass (see ``tracer.py``) and
reports the per-layer metrics, with ``trace.overhead_frac``: the median over
trials of scaled traced time / median scaled untraced replay, minus one.
Per-layer times are unscaled span times.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from genchol import harness
from genchol.harness import EnsembleConfig

import checks
import hostspeed
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Warm-up trials come from the CLI's default campaign seed.  Timed campaigns
# use seed (n + 1) << TRIAL_BITS, so their trial seeds S ^ t = S + t never meet
# the warm-up's (all below 2**11) nor another workload seed's.
WARMUP_CAMPAIGN_SEED = 1729
TRIAL_BITS = 20
SETUP_REPEATS = 9
MIN_PASSES = 2
MIN_TAIL_SAMPLES = 10  # samples beyond p90 that a full run must leave


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "verify" (normwise) or "backward" (componentwise)
    config: EnsembleConfig  # ``trials`` and ``seed`` are replaced per trial
    trials: int  # timed trials; 100 completed leave ten samples beyond p90
    warmup_trials: int  # also the trials the stored reference holds
    cli_prefix: int  # trials replayed through the CLI after the timed phase

    @property
    def campaign(self):
        # resolved at call time, so a traced run sees the wrapped function
        name = "run_normwise_campaign" if self.command == "verify" else "run_componentwise_campaign"
        return getattr(harness, name)

    def cli_argv(self, trials: int, seed: int, out) -> list[str]:
        c = self.config
        argv = [self.command, "--m", str(c.m), "--n", str(c.n),
                "--cond-target", repr(c.cond_target)]
        if self.command == "verify":
            argv += ["--dk-levels", ",".join(repr(v) for v in c.dk_levels)]
        else:
            argv += ["--eps", repr(c.eps_synth), "--eps-convention", c.eps_convention]
        return argv + ["--trials", str(trials), "--seed", str(seed),
                       "--format", "csv", "--out", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        # README shape with conditioning widened to where Jacobi fails today;
        # many tiny calls, so per-call overhead in densela and bounds dominates.
        # 260 trials: failed trials cost more than completed ones, and with
        # 130 the seed-to-seed swing in their number spread trials_per_s by 0.08.
        Workload("verify-small", "verify",
                 EnsembleConfig(m=4, n=3, trials=1, cond_target=1e8), 260, 24, 8),
        # W order 78: building W and the SVD of the explicit W^-1 take most
        # of each trial.  Same shape as backward-mid.
        Workload("verify-wop", "verify",
                 EnsembleConfig(m=6, n=6, trials=1, cond_target=1e4), 100, 6, 3),
        # componentwise control: never builds W nor a NormwiseEvaluator.
        Workload("backward-mid", "backward",
                 EnsembleConfig(m=6, n=6, trials=1, cond_target=1e3,
                                eps_synth=1e-6, eps_convention="max-safe"), 100, 24, 8),
    )
}


def campaign_seed(seed: int) -> int:
    return (seed + 1) << TRIAL_BITS


def replay_trial(wl: Workload, seed: int, trial: int) -> list:
    cfg = dataclasses.replace(wl.config, trials=1, seed=seed ^ trial)
    return [dataclasses.replace(r, trial=trial, seed=seed) for r in wl.campaign(cfg)]


@dataclass
class Phase:
    """One pass of replayed trials: per-trial times, outcomes and the CSV."""

    records: list = field(default_factory=list)
    trial_wall: list[float] = field(default_factory=list)  # s, every attempted trial
    trial_cpu: list[float] = field(default_factory=list)  # s of process CPU
    kernel_wall: list[float] = field(default_factory=list)  # reference kernel after each trial
    kernel_cpu: list[float] = field(default_factory=list)
    failed_trials: list[int] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)  # exception type -> trials
    warnings: Counter = field(default_factory=Counter)  # category -> count
    densela_overflows: int = 0
    emit_wall: float = 0.0
    emit_cpu: float = 0.0
    csv: str | None = None

    def scaled(self, kind: str) -> list[float]:
        """Trial times of ``kind`` ("wall" or "cpu") in ref_ms."""
        return hostspeed.scaled(getattr(self, f"trial_{kind}"), getattr(self, f"kernel_{kind}"))

    def scaled_emit(self, kind: str) -> float:
        """CSV emission time in ref_ms, at the speed of the pass's last replays."""
        kernel = getattr(self, f"kernel_{kind}")
        return getattr(self, f"emit_{kind}") / hostspeed.local_kernel_time(kernel, len(kernel) - 1)

    @property
    def attempted(self) -> int:
        return len(self.trial_wall)

    @property
    def completed(self) -> int:
        return self.attempted - len(self.failed_trials)

    def tally_warnings(self, caught: list) -> None:
        for w in caught:
            self.warnings[w.category.__name__] += 1
            if (issubclass(w.category, RuntimeWarning) and "overflow" in str(w.message)
                    and Path(w.filename).name == "densela.py"):
                self.densela_overflows += 1
        caught.clear()


def run_phase(wl, seed, csv_path, count, *, deadline=None, tracer=None) -> Phase:
    """Replay trials 0 .. ``count`` - 1, or as many as start before
    ``deadline`` (perf_counter); a whole pass then emits the campaign CSV."""
    trial_fn = replay_trial if tracer is None else tracer.wrap(tracing.ROOT_SPAN, replay_trial)
    phase = Phase()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for t in range(count):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if tracer is not None:
                tracer.trial = t
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                phase.records += trial_fn(wl, seed, t)
            except Exception as exc:  # counted per type; the run goes on
                phase.failures[type(exc).__name__] += 1
                phase.failed_trials.append(t)
            phase.trial_wall.append(time.perf_counter() - t0)
            phase.trial_cpu.append(time.process_time() - cpu0)
            phase.tally_warnings(caught)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            hostspeed.reference_kernel()
            phase.kernel_wall.append(time.perf_counter() - t0)
            phase.kernel_cpu.append(time.process_time() - cpu0)
        if tracer is not None:
            tracer.trial = None
        if phase.records and phase.attempted == count:
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            harness.emit_report(phase.records, "csv", csv_path)
            phase.emit_wall = time.perf_counter() - t0
            phase.emit_cpu = time.process_time() - cpu0
            phase.csv = Path(csv_path).read_text(encoding="utf-8")
        phase.tally_warnings(caught)
    return phase


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _import_s(statement: str) -> float:
    """Wall time of a fresh interpreter running ``statement``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", statement], cwd=ROOT, env=child_env(),
                   check=True, timeout=120, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    return time.perf_counter() - t0


def measure_setup() -> tuple[float, float]:
    """Fresh-interpreter import time of ``genchol.cli``: scaled to host speed
    (see ``hostspeed.REFERENCE_IMPORT_S``) and unscaled, each a median."""
    ratios, raw = [], []
    for _ in range(SETUP_REPEATS):
        cli = _import_s("import genchol.cli")
        raw.append(cli)
        ratios.append(cli / _import_s(hostspeed.REFERENCE_IMPORT))
    return hostspeed.REFERENCE_IMPORT_S * statistics.median(ratios), statistics.median(raw)


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(thread_vars) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in thread_vars},
        "git_sha": _git_sha(),
    }


def per_trial(per_pass: list[list[float]], trials: int, reduce=min) -> list[float]:
    """Per trial, ``reduce`` of its times over the passes that ran it."""
    samples: list[list[float]] = [[] for _ in range(trials)]
    for times in per_pass:
        for t, x in enumerate(times):
            samples[t].append(x)
    return [reduce(xs) for xs in samples]


def percentile(values: list[float], decile: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[decile - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_text(wl: Workload) -> str:
    return (REFERENCE_DIR / f"{wl.name}.csv").read_text(encoding="utf-8")


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: list[str]


def run(wl: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> Outcome:
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-{seed}-{'trace' if trace else 'plain'}"
    notes: list[str] = []
    problems: list[str] = []
    S = campaign_seed(seed)

    setup_s, setup_raw_s = (None, None) if trace else measure_setup()

    # warm-up from a disjoint campaign seed; its records are the ones the
    # stored reference holds
    warm = run_phase(wl, WARMUP_CAMPAIGN_SEED, out_dir / f"{stem}-warmup.csv",
                     count=wl.warmup_trials)
    if warm.csv is None:
        problems.append("every warm-up trial failed")
    else:
        ref = checks.compare_to_reference(reference_text(wl), warm.csv)
        notes.append(
            f"reference: {ref.compared} trials agree; only in reference {ref.ref_only}; "
            f"only in this run {ref.run_only}; near threshold {ref.near_threshold}"
        )
        if not ref.ok:
            problems.append(f"reference mismatch (trial: columns) {ref.mismatched}")

    deadline = time.perf_counter() + seconds
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        first = run_phase(wl, S, out_dir / f"{stem}.csv", wl.trials, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    replays: list[Phase] = []
    while len(replays) + 1 < MIN_PASSES or time.perf_counter() < deadline:
        cut = deadline if len(replays) + 1 >= MIN_PASSES else None
        replays.append(run_phase(wl, S, out_dir / f"{stem}-replay.csv", wl.trials,
                                 deadline=cut))
    if any(r.csv != first.csv or r.failed_trials != first.failed_trials
           for r in replays if r.attempted == wl.trials):
        problems.append("passes over the same trials disagree")
    if tracer is not None:
        residual = tracing.self_time_residual(tracer.spans)
        if residual > 1e-6:
            problems.append(f"span self times miss the trial wall time by {residual:.3g}")
        tracer.write(out_dir / f"{stem}-spans.jsonl")

    for p in (warm, first):
        problems += [f"trial {r.trial} records a bound violation"
                     for r in p.records if r.violation]
    if first.csv is None:
        problems.append("no trial completed")
    else:
        prefix = min(wl.cli_prefix, first.attempted)
        problems += checks.check_cli_replay(
            lambda trials, path: wl.cli_argv(trials, S, path), prefix,
            first.failed_trials, first.csv, first.records, out_dir / f"{stem}-cli.csv",
        )

    attempted, completed = first.attempted, first.completed
    failed = attempted - completed
    replayed = sum(p.attempted for p in replays)
    notes.append(f"{1 + replayed / attempted:.2f} passes over {attempted} trials; "
                 f"failures by type {dict(first.failures)}; "
                 f"failed_trial_frac {failed / max(attempted, 1)}; "
                 f"warnings {dict(first.warnings)}; "
                 f"densela overflow warnings {first.densela_overflows}")
    if not trace and 0 < completed < 10 * MIN_TAIL_SAMPLES:
        notes.append(f"only {completed} completed trials: p90 has fewer than "
                     f"{MIN_TAIL_SAMPLES} samples beyond it")

    metrics: dict[str, tuple[float, str]] = {}
    if completed and trace:
        layer = tracing.layer_metrics(tracer.spans, attempted)
        layer["densela.overflow_warnings"] = first.densela_overflows / attempted
        # against the median untraced replay: the fastest of several would
        # count as overhead what is only the spread of single replays
        untraced = per_trial([r.scaled("wall") for r in replays], attempted, statistics.median)
        layer["trace.overhead_frac"] = statistics.median(
            a / b for a, b in zip(first.scaled("wall"), untraced)) - 1.0
        metrics = {k: (v, LAYER_UNITS[k]) for k, v in layer.items()}
    elif completed:
        passes = [first, *replays]
        wall = per_trial([p.scaled("wall") for p in passes], attempted)
        cpu = per_trial([p.scaled("cpu") for p in passes], attempted)
        failed_set = set(first.failed_trials)
        done = [w for t, w in enumerate(wall) if t not in failed_set]
        emitted = [p for p in passes if p.csv is not None]
        busy = sum(wall) + min(p.scaled_emit("wall") for p in emitted)
        busy_cpu = sum(cpu) + min(p.scaled_emit("cpu") for p in emitted)
        raw = [w for t, w in enumerate(per_trial([p.trial_wall for p in passes], attempted))
               if t not in failed_set]
        kernel = statistics.median(x for p in passes for x in p.kernel_wall)
        notes.append(f"unscaled: setup {setup_raw_s} s, trial p50 {1000.0 * statistics.median(raw)} ms, "
                     f"p90 {1000.0 * percentile(raw, 9)} ms; "
                     f"reference kernel median {1000.0 * kernel} ms")
        metrics = {
            "setup_s": (setup_s, "s"),
            "trials_per_s": (1000.0 * completed / busy, "1/ref_s"),
            "trial_ms_p50": (statistics.median(done), "ref_ms"),
            "trial_ms_p90": (percentile(done, 9), "ref_ms"),
            "cpu_ms_per_trial": (busy_cpu / completed, "ref_ms"),
            "completed_trial_frac": (completed / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    notes += problems
    return Outcome(not problems, attempted, failed, metrics, notes)


def _layer_unit(name: str) -> str:
    if name.endswith(".ms_per_trial") or name.endswith(".ms"):
        return "ms"
    if name.endswith(".flop_per_trial"):
        return "flop"
    if name in ("densela.convergence_errors", "densela.overflow_warnings",
                "factorization.breakdowns"):
        return "1/trial"
    if name == "trace.overhead_frac":
        return "ratio"
    return "count"


LAYER_UNITS = {
    name: _layer_unit(name)
    for name in list(tracing.layer_metrics([], 1)) + ["densela.overflow_warnings",
                                                       "trace.overhead_frac"]
}
