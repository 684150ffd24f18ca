#!/usr/bin/env python3
"""Workload process of the cyclovision benchmark, started by ``bench/run.py``.

One process sets up one workload: it makes the workload's inputs from the
workload seed and runs an untimed warm-up pass. It then reads the clock at
its first timed call and does one of three things:

- ``--setup-only``: exits, so the parent can time set-up alone;
- ``--trace 0``: runs a fixed number of timed passes over the problem list;
- ``--trace 1``: runs traced passes that time each layer from outside.

Every problem ends as exactly one of ``ok``, ``typed_failure``
(``DegenerateGeometryError`` or ``SchemaError``), ``untyped_failure``
(any other exception) or ``wrong`` (a result that failed a check). The
run never stops on a problem. The last line of standard output is one
JSON object for the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

import cyclovision
from cyclovision import disparity, estimation
from cyclovision import gaze as gaze_layer
from cyclovision.errors import DegenerateGeometryError, SchemaError
from cyclovision.gaze import GazeState, eye_azimuths
from cyclovision.records import (
    ExperimentRecord,
    correspondence_file,
    dumps,
    gaze_from_dict,
    load_json,
    parse_correspondence_file,
    require_schema,
    write_json,
)
from cyclovision.simulate import SceneSpec, synthesize_scene

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

#: criterion-9 tolerance on noiseless azimuth recovery, radians
AZIMUTH_TOL = 1e-6
#: depth error allowed on noiseless input at the true gaze, baseline units
DEPTH_TOL = 1e-9
#: an accurate result has its range error, and the RMS of its depth
#: errors, within this share of the true range (criterion 9's 5 %)
ACCURACY_TOL = 0.05
TYPED_ERRORS = (DegenerateGeometryError, SchemaError)
CLI_START_REPEATS = 5


class Problem(NamedTuple):
    index: int
    gaze: GazeState
    sigma: float
    count: int
    scene_seed: int
    path: Path | None = None  # input file of the CLI workloads
    rows: int = 0             # correspondences in that file


class Inspection(NamedTuple):
    passed: bool
    fingerprint: str
    rho_rel_err: float | None = None
    depth_errors: tuple[float, ...] = ()


class Outcome(NamedTuple):
    kind: str  # ok, typed_failure, untyped_failure or wrong
    fingerprint: str
    inspection: Inspection | None


def scene_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def failure_kind(err: BaseException) -> str:
    return "typed_failure" if isinstance(err, TYPED_ERRORS) else "untyped_failure"


# --------------------------------------------------------------------------
# Tracing: spans recorded in memory from outside the library.


class Tracer:
    """Spans ``[name, start, end, parent, problem, phase, counts]`` in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.problem: int | None = None
        self.phase = "setup"

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, 0.0, 0.0, self._open[-1] if self._open else None,
                  self.problem, self.phase, {}]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield record[6]
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def spans_on(self, functions: dict, modules=None):
        """Span every call of ``functions`` (function -> span name).

        The library imports functions by name, so each binding in
        ``modules`` (default: every cyclovision module) is replaced for
        the duration and restored afterwards.
        """
        if modules is None:
            modules = [m for n, m in list(sys.modules.items())
                       if n == "cyclovision" or n.startswith("cyclovision.")]
        by_id = {id(fn): (fn, self.wrap(name, fn)) for fn, name in functions.items()}
        patched = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in by_id and value is by_id[id(value)][0]:
                    setattr(module, attr, by_id[id(value)][1])
                    patched.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def per_call_spans(self):
        """Spans on the small per-point functions, wherever they are bound."""
        return self.spans_on({
            disparity.decompose: "disparity.decompose",
            gaze_layer.eye_azimuths: "gaze.closed_form",
            gaze_layer.gaze_from_azimuths: "gaze.closed_form",
        })

    def write(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as out:
            for i, (name, start, end, parent, problem, phase, counts) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": name, "start_s": start - origin, "end_s": end - origin,
                    "parent": parent, "problem": problem, "phase": phase, "counts": counts,
                }) + "\n")


# --------------------------------------------------------------------------
# Workloads. Each is a fixed problem list made from the workload seed and
# run by one caller that waits for each problem before it sends the next.


class SweepSmall:
    """Library API: synthesize a 50-point random-box scene, then fit the gaze.

    The traffic of ``scripts/noise_sweep.py`` and acceptance criterion 9.
    Fixed per-call costs dominate at N = 50. The grid reaches the region
    (rho >= 10, sigma = 1e-2) where the fit raises a bare ValueError.
    """

    name = "sweep-small"
    nominal_pass_s = 4.0
    betas = (-0.5, 0.0, 0.2, 0.6)
    rhos = (1.5, 3.0, 10.0, 40.0)
    sigmas = (0.0, 1e-4, 1e-3, 1e-2)
    trials = 4
    count = 50

    def __init__(self, seed: int, workdir: Path, tracer: Tracer | None = None):
        self.problems = []
        for beta in self.betas:
            for rho in self.rhos:
                for sigma in self.sigmas:
                    for _ in range(self.trials):
                        i = len(self.problems)
                        self.problems.append(Problem(
                            i, GazeState(beta=beta, rho=rho), sigma, self.count, scene_seed(seed, i)))

    def _spec(self, p: Problem) -> SceneSpec:
        return SceneSpec(count=p.count, sigma=p.sigma, seed=p.scene_seed)

    def clear_outputs(self) -> None:
        pass

    def solve(self, p: Problem):
        return estimation.estimate_gaze(synthesize_scene(p.gaze, self._spec(p)).records)

    def inspect(self, p: Problem, fit) -> Inspection:
        values = (fit.azimuths.beta_l, fit.azimuths.beta_r, fit.gaze.beta, fit.gaze.rho,
                  fit.rms_residual)
        fingerprint = repr((*values, fit.iterations, fit.converged))
        if not all(math.isfinite(v) for v in values):
            return Inspection(False, fingerprint)
        if p.sigma == 0.0:
            truth = eye_azimuths(p.gaze)
            error = max(abs(fit.azimuths.beta_l - truth.beta_l),
                        abs(fit.azimuths.beta_r - truth.beta_r))
            return Inspection(error <= AZIMUTH_TOL, fingerprint)
        return Inspection(True, fingerprint, abs(fit.gaze.rho - p.gaze.rho) / p.gaze.rho)

    def trace(self, p: Problem, tracer: Tracer, reference: Outcome) -> bool:
        """Synthesis, then the fit split into grid seed and refinement.

        Runs once with spans at the layer calls only and once with a span
        on every per-point call. Returns whether both split fits are
        bit-identical to the unsplit fit of the reference pass.
        """
        identical = True
        for phase in ("plain", "per_call"):
            tracer.phase = phase
            calls = tracer.per_call_spans() if phase == "per_call" else contextlib.nullcontext()
            with calls, tracer.span("problem"):
                try:
                    with tracer.span("simulate.synthesize"):
                        records = synthesize_scene(p.gaze, self._spec(p)).records
                    with tracer.span("estimation.grid") as counts:
                        cells = estimation.GRID_SIZE ** 2 * len(records)
                        counts.update(cell_points=cells, bytes_computed=8 * cells)
                        initial = estimation.grid_init(records)
                    with tracer.span("estimation.lm") as counts:
                        fit = estimation.estimate_gaze(records, initial=initial)
                        counts.update(iterations=fit.iterations, converged=int(fit.converged))
                    fingerprint = self.inspect(p, fit).fingerprint
                except Exception as err:  # the outcome is the measurement
                    fingerprint = failure_kind(err)
            identical &= fingerprint == reference.fingerprint
        return identical


class CliWorkload:
    """A CLI subcommand called in-process on correspondence files.

    The files are made during set-up, as ``cyclovision synthesize`` makes
    them. Outputs go to one file per problem in the work directory.
    """

    name = ""
    command = ""
    count = 0
    gazes: tuple[tuple[float, float, float, float], ...] = ()  # (alpha, beta, rho, sigma)

    def __init__(self, seed: int, workdir: Path, tracer: Tracer | None = None):
        from cyclovision import cli

        self.cli = cli
        self.workdir = workdir
        self.problems = []
        tracer = tracer or Tracer()
        for i, (alpha, beta, rho, sigma) in enumerate(self.gazes):
            gaze = GazeState(beta=beta, rho=rho, alpha=alpha)
            spec = SceneSpec(count=self.count, sigma=sigma, seed=scene_seed(seed, i))
            tracer.problem = i
            with tracer.span("simulate.synthesize"):
                scene = synthesize_scene(gaze, spec)
            path = workdir / f"input-{i}.json"
            write_json(path, correspondence_file(
                gaze, scene.records, scene.skipped, spec.generator, sigma, spec.seed))
            self.problems.append(Problem(
                i, gaze, sigma, self.count, spec.seed, path, len(scene.records)))

    def output(self, p: Problem) -> Path:
        return self.workdir / f"output-{p.index}.json"

    def clear_outputs(self) -> None:
        for p in self.problems:
            self.output(p).unlink(missing_ok=True)

    def solve(self, p: Problem) -> Path:
        out = self.output(p)
        try:
            self.cli.main([self.command, str(p.path), "--out", str(out)], standalone_mode=False)
        except self.cli.click.ClickException as err:
            # The CLI maps library errors to exit codes; classify the original.
            raise err.__cause__ or err
        return out

    def inspect(self, p: Problem, out: Path) -> Inspection:
        text = out.read_text(encoding="utf-8")
        try:
            return self.inspect_output(p, text, out)
        except (SchemaError, KeyError, TypeError, ValueError):
            return Inspection(False, hashlib.sha256(text.encode()).hexdigest())

    def inspect_output(self, p: Problem, text: str, out: Path) -> Inspection:
        raise NotImplementedError

    def fit(self, parsed, tracer: Tracer):
        raise NotImplementedError

    def trace(self, p: Problem, tracer: Tracer, reference: Outcome) -> bool:
        """The command call, then a replay of its public library calls.

        The command's own calls into the library are spanned through the
        cli module's bindings, so its self time is measured within the
        same call. The replay runs once with spans at the layer calls only
        and once with a span on every per-point call. Returns whether the
        command's output repeats the reference pass and the replayed fit
        and re-serialized output match it byte for byte.
        """
        tracer.phase = "command"
        self.output(p).unlink(missing_ok=True)
        library_calls = {getattr(self.cli, name): name for name in (
            "load_json", "parse_correspondence_file", "estimate_gaze", "estimate_depth_map",
            "dumps")}
        with tracer.spans_on(library_calls, [self.cli]), tracer.span("cli.command"):
            try:
                out = self.solve(p)
            except Exception as err:  # the outcome is the measurement
                return failure_kind(err) == reference.fingerprint
        identical = self.inspect(p, out).fingerprint == reference.fingerprint
        text = out.read_text(encoding="utf-8")
        written = json.loads(text)
        for phase in ("plain", "per_call"):
            tracer.phase = phase
            calls = tracer.per_call_spans() if phase == "per_call" else contextlib.nullcontext()
            with calls, tracer.span("problem"):
                with tracer.span("records.parse") as counts:
                    parsed = parse_correspondence_file(load_json(p.path))
                    counts["rows"] = len(parsed.records)
                gaze, fit = self.fit(parsed, tracer)
                with tracer.span("estimation.depth_map") as counts:
                    samples = estimation.estimate_depth_map(parsed.records, gaze)
                    counts["failed"] = sum(1 for s in samples if s is None)
                with tracer.span("records.dumps") as counts:
                    replayed = dumps(written)
                    counts["bytes"] = len(replayed.encode("utf-8"))
            identical &= replayed == text and self.same_fit(written, fit)
        return identical

    def same_fit(self, written: dict, fit) -> bool:
        return True


class ReconstructMid(CliWorkload):
    """``reconstruct FILE --out OUT`` on 1000-point files at known gaze.

    Mostly depth map and records; it never reaches the grid or the fit,
    so the prediction for any fit optimization here is no change.
    """

    name = "reconstruct-mid"
    command = "reconstruct"
    nominal_pass_s = 1.5
    count = 1000
    # Half of the 2^4 design over alpha, beta, rho and sigma: every level
    # of each factor appears, half of the files are noiseless.
    gazes = ((0.0, -0.3, 2.0, 0.0), (0.3, 0.4, 2.0, 0.0), (0.0, 0.4, 6.0, 0.0),
             (0.3, -0.3, 6.0, 0.0), (0.0, -0.3, 6.0, 1e-3), (0.3, 0.4, 6.0, 1e-3),
             (0.0, 0.4, 2.0, 1e-3), (0.3, -0.3, 2.0, 1e-3))

    def inspect_output(self, p: Problem, text: str, out: Path) -> Inspection:
        data = load_json(out)
        require_schema(data, "depth-map")
        gaze_from_dict(data["gaze"])
        rows = data["records"]
        errors = tuple(float(r["s_est"]) - float(r["s_true"]) for r in rows if "s_est" in r)
        passed = len(rows) == p.rows and (
            p.sigma > 0.0 or all(abs(e) <= DEPTH_TOL for e in errors))
        return Inspection(passed, hashlib.sha256(text.encode()).hexdigest(),
                          depth_errors=errors)

    def fit(self, parsed, tracer: Tracer):
        return parsed.gaze, None


class SceneLarge(CliWorkload):
    """``estimate FILE --out OUT`` on a 10^4-point file.

    The grid's (4096, N) temporaries set the peak memory, and large
    records stress serialization differently from the small files.
    """

    name = "scene-large"
    command = "estimate"
    nominal_pass_s = 3.7
    count = 10_000
    gazes = ((0.1, 0.2, 2.0, 1e-3),)

    def inspect_output(self, p: Problem, text: str, out: Path) -> Inspection:
        record = ExperimentRecord.from_dict(load_json(out))
        # Drop the wall-clock timings, the one part that differs between runs.
        cut = text.find('\n  "timings": ')
        fingerprint = hashlib.sha256(text[:cut if cut >= 0 else None].encode()).hexdigest()
        errors = tuple(float(r["s_est"]) - float(r["s_true"])
                       for r in record.points if "s_est" in r)
        deltas = record.deltas
        if len(record.points) != p.rows or deltas is None:
            return Inspection(False, fingerprint)
        if p.sigma == 0.0:
            passed = max(abs(deltas["beta_l"]), abs(deltas["beta_r"])) <= AZIMUTH_TOL
            return Inspection(passed, fingerprint, depth_errors=errors)
        return Inspection(True, fingerprint, abs(deltas["rho"]) / p.gaze.rho, errors)

    def fit(self, parsed, tracer: Tracer):
        records = parsed.records
        with tracer.span("estimation.grid") as counts:
            cells = estimation.GRID_SIZE ** 2 * len(records)
            counts.update(cell_points=cells, bytes_computed=8 * cells)
            initial = estimation.grid_init(records)
        with tracer.span("estimation.lm") as counts:
            fit = estimation.estimate_gaze(
                records, initial=initial, config=estimation.EstimationConfig(),
                alpha=parsed.gaze.alpha)
            counts.update(iterations=fit.iterations, converged=int(fit.converged))
        return fit.gaze, fit

    def same_fit(self, written: dict, fit) -> bool:
        estimate = written["gaze_estimate"]
        return (estimate["beta_l"], estimate["beta_r"]) == (
            fit.azimuths.beta_l, fit.azimuths.beta_r)


WORKLOADS = {w.name: w for w in (SweepSmall, ReconstructMid, SceneLarge)}


# --------------------------------------------------------------------------
# Passes and outcome accounting.


_REF_GRID = np.linspace(-1.0, 1.0, 4096)[:, None]
_REF_COLUMNS = np.linspace(0.0, 1.0, 50)[None, :]
_REF_ROTATION = np.array([[0.8, 0.0, 0.6], [0.0, 1.0, 0.0], [-0.6, 0.0, 0.8]])


def reference_s() -> float:
    """Wall time of a fixed reference kernel that uses no cyclovision code.

    It mixes what the workloads do: a (4096, 50) array expression, small
    per-point numpy calls in a Python loop, and float formatting. The host
    alternates between a fast and a slow state for seconds at a time, and
    the ratio of a problem's time to the reference time next to it stays
    put while both times move by up to 1.6x.
    """
    t0 = time.perf_counter()
    r = np.sin(_REF_GRID) * _REF_COLUMNS - np.cos(_REF_GRID) * (1.0 - _REF_COLUMNS)
    total = float(np.mean(r ** 2))
    for i in range(60):
        v = _REF_ROTATION @ np.array([0.01 * i, 0.2, 1.0])
        v = v / v[2]
        total += len(format(float(v[0]) + math.sin(i), ".17g"))
    return time.perf_counter() - t0


def run_pass(workload, problems) -> list:
    """One pass: [(output or failure kind, seconds, cost in reference units)].

    The reference kernel runs before the first problem and after each one;
    a problem's cost is its time over the mean of the two references
    around it.
    """
    workload.clear_outputs()
    results = []
    before = reference_s()
    for p in problems:
        t0 = time.perf_counter()
        try:
            result = workload.solve(p)
        except Exception as err:  # the outcome is the measurement
            result = failure_kind(err)
        seconds = time.perf_counter() - t0
        after = reference_s()
        results.append((result, seconds, seconds / (0.5 * (before + after))))
        before = after
    return results


def assess(workload, problems, results, memo: dict) -> list[Outcome]:
    outcomes = []
    for p, (result, *_) in zip(problems, results):
        if isinstance(result, str):
            outcomes.append(Outcome(result, result, None))
            continue
        inspection = workload.inspect(p, result)
        # An identical output was already checked; keep that verdict.
        inspection = memo.setdefault((p.index, inspection.fingerprint), inspection)
        outcomes.append(Outcome("ok" if inspection.passed else "wrong",
                                inspection.fingerprint, inspection))
    return outcomes


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def rms(values) -> float:
    return float(np.sqrt(np.mean(np.square(values))))


def tail_percentile(n: int) -> int:
    """Highest of p90/p75/p50 with at least ten samples beyond it."""
    for q in (90, 75):
        if n * (100 - q) / 100 >= 10:
            return q
    return 50


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    threads = {k: v for k, v in sorted(os.environ.items())
               if k.endswith("_NUM_THREADS") or k in ("VECLIB_MAXIMUM_THREADS", "PYTHONHASHSEED")}
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "threads": threads}


def measure(workload, problems, passes: int, reference: list[Outcome]) -> dict:
    """Timed passes; end-to-end metrics and the checks that gate them."""
    memo: dict = {}
    pass_times, pass_costs, samples, costs, outcomes = [], [], [], [], []
    repeatable = True
    for _ in range(passes):
        results = run_pass(workload, problems)
        pass_times.append(sum(r[1] for r in results))
        pass_costs.append(sum(r[2] for r in results))
        samples.extend(r[1] for r in results)
        costs.extend(r[2] for r in results)
        this_pass = assess(workload, problems, results, memo)
        repeatable &= [o[:2] for o in this_pass] == [o[:2] for o in reference]
        outcomes.extend(this_pass)

    kinds = Counter(o.kind for o in outcomes)
    attempted = len(outcomes)
    first = list(zip(problems, outcomes[:len(problems)]))
    solved = [(p, o.inspection) for p, o in first if o.kind == "ok"]
    rho_errors = [i.rho_rel_err for _, i in solved if i.rho_rel_err is not None]
    depth_errors = [e for _, i in solved for e in i.depth_errors]
    accurate = sum(
        (i.rho_rel_err is None or i.rho_rel_err <= ACCURACY_TOL)
        and (not i.depth_errors or rms(i.depth_errors) <= ACCURACY_TOL * p.gaze.rho)
        for p, i in solved)
    tail = tail_percentile(len(samples))
    checks = {
        "no_wrong_results": kinds["wrong"] == 0,
        "noiseless_problems_solved": all(o.kind == "ok" for p, o in first if p.sigma == 0.0),
        "passes_repeat_exactly": repeatable,
    }
    details = {
        "passes": passes,
        "problems_per_pass": len(problems),
        "pass_s": pass_times,
        "samples": len(samples),
        "tail_percentile": tail,
        "problems_per_s": len(problems) / float(np.median(pass_times)),
        "solve_ms_p50": 1e3 * percentile(samples, 50),
        f"solve_ms_p{tail}": 1e3 * percentile(samples, tail),
        "reference_ms_p50": 1e3 * percentile(
            [t / c for t, c in zip(samples, costs)], 50),
        "outcomes": {k: kinds[k] for k in ("ok", "typed_failure", "untyped_failure", "wrong")},
        "untyped_failure_share": kinds["untyped_failure"] / attempted,
    }
    if rho_errors:
        details["rho_rel_err_p50"] = percentile(rho_errors, 50)
        details["noisy_fits"] = len(rho_errors)
    if depth_errors:
        details["depth_rms_err"] = rms(depth_errors)
        details["recovered_points"] = len(depth_errors)
    metrics = {
        "problems_per_kref": (1e3 * len(problems) / float(np.median(pass_costs)), "1/kref"),
        "solve_ref_p50": (percentile(costs, 50), "ref"),
        "solve_ref_tail": (percentile(costs, tail), "ref"),
        "solved_share": (kinds["ok"] / attempted, "ratio"),
        "typed_outcome_share": (1.0 - kinds["untyped_failure"] / attempted, "ratio"),
        "accurate_share": (accurate / len(problems), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {"attempted": attempted, "failed": attempted - kinds["ok"],
            "checks": checks, "details": details, "metrics": metrics}


# --------------------------------------------------------------------------
# Traced run: per-layer metrics.


def cli_start_ms() -> float:
    """Median wall time of a fresh ``python -m cyclovision --help``."""
    times = []
    for _ in range(CLI_START_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "cyclovision", "--help"], check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))


def span_cost_s(repeats: int = 20_000) -> float:
    """Measured cost of one span: a wrapped no-op call minus a bare one."""
    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    costs = []
    for fn in (wrapped, noop):
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn()
        costs.append((time.perf_counter() - t0) / repeats)
    return costs[0] - costs[1]


def layer_metrics(spans: list[list], passes: int, problems: int) -> tuple[dict, float]:
    """Per-layer metrics, and the measured tracing overhead in ms per problem.

    Layer times come from the ``plain`` phase (spans at the layer calls
    only); per-call times and call counts of the per-point functions come
    from the ``per_call`` phase, and the CLI's time from the ``command``
    phase; these three are self times. A layer the workload bypasses
    reads 0. ``trace.overhead_ms`` is computed: per-call spans per problem
    times the measured cost of one span. The measured difference between
    the two phases is returned beside it; on a multi-second problem it is
    smaller than the run-to-run noise.
    """
    covered = defaultdict(float)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            covered[parent] += end - start
    by_name = defaultdict(list)
    for i, (name, start, end, parent, problem, phase, counts) in enumerate(spans):
        by_name[name, phase].append((end - start, end - start - covered[i], counts))

    def mean(name, phases=("plain",), scale=1e3, self_time=False):
        rows = [r for phase in phases for r in by_name[name, phase]]
        return scale * sum(r[1 if self_time else 0] for r in rows) / len(rows) if rows else 0.0

    def per_pass(name, key, phase="plain"):
        return sum(r[2].get(key, 0) for r in by_name[name, phase]) / passes

    def calls_per_pass(name):
        return len(by_name[name, "per_call"]) / passes

    lm_calls = len(by_name["estimation.lm", "plain"])
    per_call_spans = (calls_per_pass("disparity.decompose") + calls_per_pass("gaze.closed_form"))
    # Each per-call replay against the plain replay of the same problem before it.
    overhead, plain = [], {}
    for name, start, end, parent, problem, phase, _ in spans:
        if name == "problem" and phase == "plain":
            plain[problem] = end - start
        elif name == "problem" and phase == "per_call" and problem in plain:
            overhead.append(end - start - plain.pop(problem))
    metrics = {
        "simulate.synthesize_ms": (mean("simulate.synthesize", ("setup", "plain")), "ms"),
        "estimation.grid_ms": (mean("estimation.grid"), "ms"),
        "estimation.grid_cell_points": (per_pass("estimation.grid", "cell_points"), "count"),
        "estimation.grid_bytes_computed": (per_pass("estimation.grid", "bytes_computed"), "B"),
        "estimation.lm_ms": (mean("estimation.lm"), "ms"),
        "estimation.lm_iterations": (per_pass("estimation.lm", "iterations"), "count"),
        "estimation.lm_converged_share": (
            per_pass("estimation.lm", "converged") * passes / lm_calls if lm_calls else 0.0,
            "ratio"),
        "estimation.depth_map_ms": (mean("estimation.depth_map"), "ms"),
        "estimation.depth_failed": (per_pass("estimation.depth_map", "failed"), "count"),
        "disparity.decompose_us": (
            mean("disparity.decompose", ("per_call",), 1e6, self_time=True), "us"),
        "disparity.decompose_calls": (calls_per_pass("disparity.decompose"), "count"),
        "gaze.closed_form_us": (mean("gaze.closed_form", ("per_call",), 1e6, self_time=True), "us"),
        "gaze.closed_form_calls": (calls_per_pass("gaze.closed_form"), "count"),
        "records.parse_ms": (mean("records.parse"), "ms"),
        "records.rows_parsed": (per_pass("records.parse", "rows"), "count"),
        "records.dumps_ms": (mean("records.dumps"), "ms"),
        "records.bytes_written": (per_pass("records.dumps", "bytes"), "B"),
        "cli.self_ms": (mean("cli.command", ("command",), self_time=True), "ms"),
        "trace.overhead_ms": (1e3 * per_call_spans / problems * span_cost_s(), "ms"),
    }
    return metrics, 1e3 * float(np.mean(overhead))


def traced_run(workload, seed: int, seconds: int, tracer: Tracer, reference) -> dict:
    passes = max(1, round(seconds / (3 * workload.nominal_pass_s)))
    identical = True
    for _ in range(passes):
        for p in workload.problems:
            tracer.problem = p.index
            identical &= workload.trace(p, tracer, reference[p.index])
    metrics, overhead_measured_ms = layer_metrics(tracer.spans, passes, len(workload.problems))
    metrics["cli.start_ms"] = (cli_start_ms(), "ms")
    trace_file = OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl"
    tracer.write(trace_file)
    failed = sum(o.kind != "ok" for o in reference)
    return {
        "attempted": passes * len(reference),
        "failed": passes * failed,
        "checks": {
            "traced_runs_match_untraced": identical,
            "no_wrong_results": all(o.kind != "wrong" for o in reference),
            "noiseless_problems_solved": all(
                o.kind == "ok" for p, o in zip(workload.problems, reference) if p.sigma == 0.0),
        },
        "details": {"passes": passes, "problems_per_pass": len(reference),
                    "overhead_measured_ms": overhead_measured_ms,
                    "spans": len(tracer.spans), "trace_file": str(trace_file.relative_to(ROOT))},
        "metrics": metrics,
    }


def run(args, workdir: Path) -> dict:
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, workdir, tracer)
    results = run_pass(workload, workload.problems)  # untimed warm-up
    reference = assess(workload, workload.problems, results, {})
    ready = time.perf_counter()
    if args.setup_only:
        return {"ready": ready}
    if args.trace:
        result = traced_run(workload, args.seed, args.seconds, tracer, reference)
    else:
        passes = max(3, round(args.seconds / workload.nominal_pass_s))
        result = measure(workload, workload.problems, passes, reference)
    result["ready"] = ready
    result["environment"] = environment()
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    library = Path(cyclovision.__file__).resolve().parent
    if library != ROOT / "src" / "cyclovision":
        raise SystemExit(f"cyclovision was imported from {library}, not from {ROOT / 'src'}")
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as work:
        result = run(args, Path(work))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
