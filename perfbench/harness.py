"""One benchmark pass, and the timed loop of passes that makes a run.

A pass does what one ``casgd compare`` invocation does, through the
public API only: read the LIBSVM file and parse it, partition it for
every config, warm the lazy matrix caches, run SGD and CA-SGD at each s,
then check the outputs.  Passes repeat until the run's time is up; every
pass after the first must reproduce the first one's solutions and
counters bit for bit, traced or not.
"""

from __future__ import annotations

import gc
import statistics
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from casgd import CostParams, SolverConfig, parse_libsvm, partition, run_casgd, run_sgd, theoretical_cost

from . import checks, tracing
from .checks import CheckLog
from .workloads import ETA, Workload


@dataclass
class PassResult:
    setup_s: float
    solve_s: float
    verdict_s: float
    # config label -> solver wall seconds
    solve_times: dict[str, float]
    rows: int
    residual_max: float
    # config label -> (final_x bytes, counters)
    outputs: dict[str, tuple[bytes, dict[str, int]]]


def _no_span(name):
    return nullcontext()


def run_pass(w: Workload, path: Path, seed: int, log: CheckLog, tracer: tracing.Tracer | None = None) -> PassResult:
    span = tracer.span if tracer else _no_span
    start = perf_counter()
    text = path.read_text()
    with span("sparse.parse"):
        dataset = parse_libsvm(text)
    del text
    configs = ["sgd"] + [f"casgd-s{s}" for s in w.s_list]
    with span("cluster.partition"):
        clusters = {label: partition(dataset, w.layout, w.p) for label in configs}
    with span("sparse.cache"):
        A = dataset.a_tilde
        A.row_slices
        A.dense_cache()
        A.scipy_csr
    setup_s = perf_counter() - start

    m, n = dataset.num_points, dataset.num_features
    points = {s: w.trace_points(m, s) for s in w.s_list}
    sgd_schedule = sorted({p for pts in points.values() for p in pts}, key=lambda p: (p[1], p[0]))
    sgd_iterations = sgd_schedule[-1][1]

    def params(s: int, H: int) -> CostParams:
        return CostParams(m=m, n=n, p=w.p, b=w.b, s=s, H=H, f=dataset.density)

    solve_times = {}
    rows = 0
    outputs = {}

    def solve(label, fn, cfg, schedule, iterations):
        nonlocal rows
        if tracer:
            tracer.config = label
        t0 = perf_counter()
        with span(tracing.RUN):
            result = fn(dataset, cfg, clusters[label], schedule=schedule)
        solve_times[label] = perf_counter() - t0
        rows += iterations * w.b
        outputs[label] = (result.final_x.tobytes(), result.counters.as_dict())
        return result

    # SGD runs to the last trace point of any s: in the row layout that
    # point is rounded up to a round boundary, past epochs*ceil(m/b).
    sgd_cfg = SolverConfig(eta0=ETA, b=w.b, total_iterations=sgd_iterations, layout=w.layout, p=w.p, seed=seed)
    sgd = solve("sgd", run_sgd, sgd_cfg, sgd_schedule, sgd_iterations)
    residual = checks.counter_laws(log, "sgd", sgd.counters, theoretical_cost(params(1, sgd_iterations), "sgd", w.layout))
    log.check(
        len(sgd.epoch_solutions) == len(sgd_schedule) + 1,
        f"sgd: {len(sgd.epoch_solutions)} trace points, expected {len(sgd_schedule) + 1}",
    )
    sgd_at = dict(zip([0] + [it for _, it in sgd_schedule], sgd.epoch_solutions))

    H = w.epochs * -(-m // w.b)
    for s in w.s_list:
        label = f"casgd-s{s}"
        cfg = SolverConfig(eta0=ETA, b=w.b, s=s, epochs=w.epochs, layout=w.layout, p=w.p, seed=seed)
        ca = solve(label, run_casgd, cfg, points[s], s * -(-H // s))
        expected = theoretical_cost(params(s, H), "casgd", w.layout)
        residual = max(residual, checks.counter_laws(log, label, ca.counters, expected))
        log.check(
            [t.epoch for t in ca.trace] == list(range(w.epochs + 1)),
            f"{label}: traced epochs {[t.epoch for t in ca.trace]}",
        )
        reference = [sgd_at[it] for it in [0] + [it for _, it in points[s]] if it in sgd_at]
        checks.compare_epochs(log, label, reference, ca.epoch_solutions, w.epochs)
        if s == 1:
            checks.bitwise_equal(log, label, sgd_at.get(points[s][-1][1]), ca.final_x)

    return PassResult(
        setup_s=setup_s,
        solve_s=sum(solve_times.values()),
        verdict_s=perf_counter() - start,
        solve_times=solve_times,
        rows=rows,
        residual_max=residual,
        outputs=outputs,
    )


@dataclass
class Measurement:
    log: CheckLog = field(default_factory=CheckLog)
    plain: list[PassResult] = field(default_factory=list)
    traced: list[PassResult] = field(default_factory=list)
    layers: list[dict[str, float]] = field(default_factory=list)
    last_tracer: tracing.Tracer | None = None

    def end_to_end(self) -> dict[str, float]:
        """Best observed times of each step: the fastest set-up, each config's
        fastest solve, and the fastest checking; ``verdict_s`` is their sum.

        The work is deterministic and interference only adds time, so the
        minimum is the steadiest estimate of its cost on a host whose speed
        drifts for minutes at a time; medians and means follow the drift.
        """
        passes = self.plain
        setup = min(p.setup_s for p in passes)
        solve = sum(min(p.solve_times[label] for p in passes) for label in passes[0].solve_times)
        checking = min(p.verdict_s - p.setup_s - p.solve_s for p in passes)
        return {
            "setup_s": setup,
            "samples_per_s": passes[0].rows / solve,
            "verdict_s": setup + solve + checking,
        }

    def per_layer(self) -> dict[str, float]:
        """Times are means over traced passes, so self time plus child spans
        still add up to run time; counts repeat in every pass."""
        last = self.layers[-1]
        out = {
            key: value if isinstance(value, int) else statistics.fmean(layer[key] for layer in self.layers)
            for key, value in last.items()
        }
        totals = Counter()
        for _, counters in self.traced[-1].outputs.values():
            totals.update(counters)
        out.update({f"cluster.{key}": value for key, value in totals.items()})
        out["costs.residual_max"] = max(p.residual_max for p in self.plain + self.traced)
        out["trace.overhead"] = statistics.fmean(p.solve_s for p in self.traced) / statistics.fmean(
            p.solve_s for p in self.plain
        )
        return out


def measure(w: Workload, path: Path, seed: int, seconds: float, traced: bool) -> Measurement:
    """Run passes for ``seconds``; with ``traced``, every other pass is traced.

    Pass 0 is a warm-up: it is checked and fixes the reference outputs,
    but its times are not kept, so first-touch file reads and lazy imports
    stay out of the metrics.  At least one timed pass of each kind runs.
    """
    result = Measurement()
    log = result.log
    deadline = perf_counter() + seconds
    first = run_pass(w, path, seed, log).outputs
    index = 1
    while True:
        tracer = tracing.Tracer() if traced and index % 2 == 0 else None
        gc.collect()
        if tracer:
            with tracing.installed(tracer):
                outcome = run_pass(w, path, seed, log, tracer)
            spans = tracer.spans
            log.check(tracing.children_tile(spans), "trace: child spans overlap or leave their run span")
            result.layers.append(tracing.summarize(spans))
            result.traced.append(outcome)
            result.last_tracer = tracer
        else:
            result.plain.append(outcome := run_pass(w, path, seed, log))
        for label, (x_bytes, counters) in first.items():
            again = outcome.outputs[label]
            log.check(again[0] == x_bytes, f"{label}: pass {index} final_x differs from pass 0")
            log.check(again[1] == counters, f"{label}: pass {index} counters differ from pass 0")
        index += 1
        if perf_counter() >= deadline and (not traced or index > 2):
            return result
