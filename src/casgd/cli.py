"""Command-line frontend: train, compare, costs, bench.

    casgd train   --data d.svm --algo sgd --epochs 100 --eta 1 --trace out.csv
    casgd compare --data d.svm --s-list 2,8,64 --epochs 100 --eta 1 --trace cmp.csv
    casgd costs   --m 8124 --n 112 --f 0.19 --p 64 --b 1 --s 16 --epochs 100
    casgd bench   --data d.svm --algo casgd --s-step 8 --epochs 2 --repeats 5 --trace b.csv

Exit codes: 0 success, 1 parse/configuration error (including non-finite
feature values, a non-finite or negative --eta and a non-finite
--tolerance), 2 bad flags, 3 comparison failed (tolerance exceeded, a
non-finite error, or fewer than epochs+1 epochs compared).  CSV files are
written to a temp file and renamed into place, so no partial output
survives an error.  All floats are serialized with 17 significant digits
(round-trip exact), and every run is fully determined by its flags, so
repeated invocations produce byte-identical traces.
"""

from __future__ import annotations

import argparse
import gzip
import math
import os
import statistics
import sys
import tempfile
import time

import numpy as np

from .cluster import BLOCK_COLUMN, BLOCK_ROW, partition
from .costs import CostParams, MachineModel, crossover_s, modeled_time, theoretical_cost
from .solvers import (
    ConfigError,
    PhaseTimer,
    SolverConfig,
    epoch_schedule,
    iterations_per_epoch,
    relative_solution_error,
    run_casgd,
    run_sgd,
)
from .sparse import LibsvmParseError, parse_libsvm

__all__ = ["main", "run"]

_LAYOUTS = {"col": BLOCK_COLUMN, "row": BLOCK_ROW}


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path: str, header: str, rows: list[str]) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(row + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_dataset(args):
    use_gzip = args.gzip or args.data.endswith(".gz")
    opener = gzip.open if use_gzip else open
    with opener(args.data, "rt") as fh:
        text = fh.read()
    return parse_libsvm(text, num_features=args.num_features)


def _data_flags(sub):
    sub.add_argument("--data", required=True, help="input file path")
    sub.add_argument("--format", choices=["libsvm"], default="libsvm")
    sub.add_argument("--gzip", action="store_true", help="force gzip decoding (auto for .gz)")
    sub.add_argument("--num-features", type=int, default=None, help="force a feature count larger than the max index seen")


def _solver_flags(sub):
    sub.add_argument("--layout", choices=["col", "row"], default="col")
    sub.add_argument("--procs", type=int, default=1)
    sub.add_argument("--batch", type=int, default=1)
    sub.add_argument("--epochs", type=int, default=100)
    sub.add_argument("--eta", type=float, default=1.0)
    sub.add_argument("--seed", type=int, default=0)


def _solve(dataset, args, algo: str, s: int):
    layout = _LAYOUTS[args.layout]
    b = dataset.num_points if algo == "gd" else args.batch
    cfg = SolverConfig(
        eta0=args.eta,
        b=b,
        s=s if algo == "casgd" else 1,
        epochs=args.epochs,
        layout=layout,
        p=args.procs,
        seed=args.seed,
    )
    cluster = partition(dataset, layout, args.procs)
    if algo == "casgd":
        return run_casgd(dataset, cfg, cluster)
    return run_sgd(dataset, cfg, cluster)


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    dataset = _load_dataset(args)
    run = _solve(dataset, args, args.algo, args.s_step)
    rows = [
        ",".join(
            [str(t.epoch), _fmt(t.loss), _fmt(t.accuracy), str(t.flops), str(t.words), str(t.messages), str(t.collectives)]
        )
        for t in run.trace
    ]
    _write_csv(args.trace, "epoch,loss,accuracy,flops,words,messages,collectives", rows)
    final = run.trace[-1]
    print(f"final_loss={_fmt(final.loss)} final_accuracy={_fmt(final.accuracy)}")
    return 0


# ---------------------------------------------------------------------------
# compare


def cmd_compare(args) -> int:
    # A negative tolerance stays valid: it makes every comparison fail.
    if not math.isfinite(args.tolerance):
        raise ConfigError(f"--tolerance must be finite, got {args.tolerance!r}")
    dataset = _load_dataset(args)
    try:
        s_values = [int(tok) for tok in args.s_list.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bad --s-list {args.s_list!r}") from None
    if not s_values or min(s_values) < 1:
        raise ConfigError("--s-list must hold positive integers")
    layout = _LAYOUTS[args.layout]
    m = dataset.num_points
    H = args.epochs * iterations_per_epoch(m, args.batch)

    def sgd_run(sched):
        # SGD runs to the last point it is compared at; in the row layout
        # that point is rounded up to a round boundary, past H.
        iterations = sched[-1][1] if sched else 0
        cfg = SolverConfig(eta0=args.eta, b=args.batch, s=1, total_iterations=iterations, layout=layout, p=args.procs, seed=args.seed)
        return run_sgd(dataset, cfg, partition(dataset, layout, args.procs), schedule=sched)

    # In column layout the s-step run materializes x at every iteration, so
    # one baseline run serves all s.  Row-layout runs only materialize x at
    # round boundaries; the baseline is re-traced on each s's aligned points.
    baseline = sgd_run(epoch_schedule(m, args.batch, H)) if layout == BLOCK_COLUMN else None

    rows = []
    errors = []
    short = []
    for s in s_values:
        sched = epoch_schedule(m, args.batch, H, s=s, align_to_rounds=layout == BLOCK_ROW)
        base = baseline if baseline is not None else sgd_run(sched)
        cfg = SolverConfig(eta0=args.eta, b=args.batch, s=s, epochs=args.epochs, layout=layout, p=args.procs, seed=args.seed)
        ca = run_casgd(dataset, cfg, partition(dataset, layout, args.procs), schedule=sched)
        compared = min(len(base.trace), len(ca.trace))
        if compared != args.epochs + 1:
            short.append(f"s={s}: compared {compared} epochs, expected {args.epochs + 1}")
        for t_sgd, t_ca, x_sgd, x_ca in zip(base.trace, ca.trace, base.epoch_solutions, ca.epoch_solutions):
            rel = relative_solution_error(x_sgd, x_ca)
            errors.append(rel)
            rows.append(
                ",".join(
                    [
                        str(t_sgd.epoch),
                        str(s),
                        _fmt(rel),
                        _fmt(t_sgd.loss),
                        _fmt(t_ca.loss),
                        _fmt(t_sgd.accuracy),
                        _fmt(t_ca.accuracy),
                    ]
                )
            )
    _write_csv(args.trace, "epoch,s,rel_solution_error,loss_sgd,loss_casgd,acc_sgd,acc_casgd", rows)
    # NaN ranks above every number, so a NaN error cannot hide behind max().
    worst = max(errors, key=lambda e: (math.isnan(e), e), default=0.0)
    print(f"max_rel_solution_error={_fmt(worst)}")
    if short:
        print("; ".join(short), file=sys.stderr)
        return 3
    if not math.isfinite(worst):
        print("non-finite relative solution error", file=sys.stderr)
        return 3
    if worst > args.tolerance:
        print(f"tolerance {_fmt(args.tolerance)} exceeded", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# costs


def cmd_costs(args) -> int:
    H = args.epochs * iterations_per_epoch(args.m, args.b)
    params = CostParams(m=args.m, n=args.n, p=args.p, b=args.b, s=args.s, H=H, f=args.f, omega=args.omega)
    machine = MachineModel(alpha=args.alpha, beta=args.beta, gamma=args.gamma)
    print(f"H={H} logical iterations (epochs={args.epochs}, iterations/epoch={iterations_per_epoch(args.m, args.b)})")
    header = f"{'algorithm':<10} {'layout':<14} {'flops':>16} {'words':>14} {'messages':>10} {'collectives':>12} {'sig_evals':>10} {'modeled_time':>14}"
    print(header)
    for algo in ("sgd", "casgd"):
        for layout in (BLOCK_COLUMN, BLOCK_ROW):
            cost = theoretical_cost(params, algo, layout)
            t = modeled_time(cost, machine, params.omega)
            print(
                f"{algo:<10} {layout:<14} {cost.flops:>16} {cost.words_moved:>14} "
                f"{cost.messages:>10} {cost.collectives:>12} {cost.sig_evals:>10} {_fmt(t):>14}"
            )
    print(f"crossover_s={crossover_s(params, machine)} (scan over s in [1, {args.s}], column layout)")
    return 0


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args) -> int:
    dataset = _load_dataset(args)
    layout = _LAYOUTS[args.layout]
    b = dataset.num_points if args.algo == "gd" else args.batch
    cfg = SolverConfig(
        eta0=args.eta,
        b=b,
        s=args.s_step if args.algo == "casgd" else 1,
        epochs=args.epochs,
        layout=layout,
        p=args.procs,
        seed=args.seed,
    )
    samples: dict[str, list[float]] = {phase: [] for phase in PhaseTimer.PHASES}
    totals = []
    for _ in range(args.repeats):
        timer = PhaseTimer()
        cluster = partition(dataset, layout, args.procs)
        t0 = time.perf_counter()
        if args.algo == "casgd":
            run_casgd(dataset, cfg, cluster, timer=timer)
        else:
            run_sgd(dataset, cfg, cluster, timer=timer)
        totals.append(time.perf_counter() - t0)
        for phase in PhaseTimer.PHASES:
            samples[phase].append(timer.totals[phase])
    rows = []
    for phase in PhaseTimer.PHASES:
        vals = samples[phase]
        dev = statistics.stdev(vals) if len(vals) > 1 else 0.0
        rows.append(f"{phase},{_fmt(statistics.mean(vals))},{_fmt(dev)}")
    dev = statistics.stdev(totals) if len(totals) > 1 else 0.0
    rows.append(f"total,{_fmt(statistics.mean(totals))},{_fmt(dev)}")
    _write_csv(args.trace, "phase,mean_seconds,stddev_seconds", rows)
    print(f"wall-clock of the simulation itself over {args.repeats} repeat(s); not cluster timings")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="casgd", description="sparse logistic regression: SGD and s-step SGD on a simulated cluster")
    subs = parser.add_subparsers(dest="command", required=True)

    train = subs.add_parser("train", help="run one solver, emit a per-epoch CSV trace")
    _data_flags(train)
    train.add_argument("--algo", choices=["sgd", "casgd", "gd"], default="sgd")
    train.add_argument("--s-step", type=int, default=1, help="iterations fused per communication round (casgd)")
    _solver_flags(train)
    train.add_argument("--trace", required=True, help="output CSV path")
    train.set_defaults(func=cmd_train)

    compare = subs.add_parser("compare", help="SGD vs s-step SGD at matched seeds, per-epoch solution error")
    _data_flags(compare)
    compare.add_argument("--s-list", required=True, help="comma-separated s values, e.g. 2,8,64,512")
    compare.add_argument("--tolerance", type=float, default=1e-10)
    _solver_flags(compare)
    compare.add_argument("--trace", required=True, help="output CSV path")
    compare.set_defaults(func=cmd_compare)

    costs = subs.add_parser("costs", help="closed-form counters and modeled time for both algorithms and layouts")
    costs.add_argument("--m", type=int, required=True)
    costs.add_argument("--n", type=int, required=True)
    costs.add_argument("--f", type=float, required=True, help="nonzero fraction in (0, 1]")
    costs.add_argument("--p", type=int, default=1)
    costs.add_argument("--b", type=int, default=1)
    costs.add_argument("--s", type=int, default=16)
    costs.add_argument("--epochs", type=int, default=100)
    costs.add_argument("--alpha", type=float, default=1e-6, help="seconds per message")
    costs.add_argument("--beta", type=float, default=1e-9, help="seconds per word")
    costs.add_argument("--gamma", type=float, default=1e-11, help="seconds per flop")
    costs.add_argument("--omega", type=float, default=5.0, help="flops per nonlinearity evaluation")
    costs.set_defaults(func=cmd_costs)

    bench = subs.add_parser("bench", help="wall-clock phase breakdown of the simulation (not cluster timings)")
    _data_flags(bench)
    bench.add_argument("--algo", choices=["sgd", "casgd", "gd"], default="sgd")
    bench.add_argument("--s-step", type=int, default=1)
    _solver_flags(bench)
    bench.add_argument("--repeats", type=int, default=1)
    bench.add_argument("--trace", required=True, help="output CSV path")
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except LibsvmParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
