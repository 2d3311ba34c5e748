"""Command-line frontend: train, compare, costs.

    casgd train   --data d.svm --algo sgd --epochs 100 --eta 1 --trace out.csv
    casgd compare --data d.svm --s-list 2,8,64 --epochs 100 --eta 1 --trace cmp.csv
    casgd costs   --m 8124 --n 112 --f 0.19 --p 64 --b 1 --s 16 --epochs 100

Exit codes: 0 success, 1 parse/configuration error (including non-finite
feature values, a truncated or corrupt gzip file, a batch size below 1 or
above the dataset's rows, a non-finite or negative --eta,
--tolerance, --alpha, --beta, --gamma or --omega, a costs --epochs below
1, and a train --s-step other than 1 without --algo casgd), 2 bad flags,
3 comparison failed (tolerance exceeded or a non-finite error).
A --data file that starts with gzip's magic bytes (1f 8b) is decompressed,
whatever its name.  ``compare`` runs SGD once, traced at the points of
every s, and compares each s-step run with it at that run's own points:
epoch ends, which the row layout rounds up to the end of an s-step round.
CSV files are written to a temp file and renamed into place, so no
partial output survives an error.  All floats are serialized with
17 significant digits (round-trip exact), and every run is fully
determined by its flags, so repeated invocations produce byte-identical
traces.
"""

from __future__ import annotations

import argparse
import gzip
import math
import os
import sys
import tempfile
import zlib

from .cluster import BLOCK_COLUMN, BLOCK_ROW, partition
from .costs import DEFAULT_OMEGA, CostParams, MachineModel, crossover_s, modeled_time, theoretical_cost
from .solvers import (
    ConfigError,
    SolverConfig,
    epoch_schedule,
    iterations_per_epoch,
    relative_solution_error,
    run_casgd,
    run_sgd,
)
from .sparse import parse_libsvm

__all__ = ["main", "run"]

_LAYOUTS = {"col": BLOCK_COLUMN, "row": BLOCK_ROW}


def _fmt(value: float) -> str:
    return format(value, ".17g")


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
    with open(args.data, "rb") as fh:
        packed = fh.read(2) == b"\x1f\x8b"
    with (gzip.open if packed else open)(args.data, "rt") as fh:
        text = fh.read()
    return parse_libsvm(text, num_features=args.num_features)


def _data_flags(sub):
    sub.add_argument("--data", required=True, help="input file path")
    sub.add_argument("--num-features", type=int, default=None, help="force a feature count larger than the max index seen")


def _solver_flags(sub):
    sub.add_argument("--layout", choices=["col", "row"], default="col")
    sub.add_argument("--procs", type=int, default=1)
    sub.add_argument("--batch", type=int, default=1)
    sub.add_argument("--epochs", type=int, default=100)
    sub.add_argument("--eta", type=float, default=1.0)
    sub.add_argument("--seed", type=int, default=0)


def _config(dataset, args) -> SolverConfig:
    """Solver settings of ``train`` (``gd`` is SGD with one batch of every row)."""
    return SolverConfig(
        eta0=args.eta,
        b=dataset.num_points if args.algo == "gd" else args.batch,
        s=args.s_step,
        epochs=args.epochs,
        layout=_LAYOUTS[args.layout],
        p=args.procs,
        seed=args.seed,
    )


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    if args.s_step != 1 and args.algo != "casgd":
        raise ConfigError(f"--s-step {args.s_step} applies only to --algo casgd")
    dataset = _load_dataset(args)
    cfg = _config(dataset, args)
    cluster = partition(dataset, cfg.layout, cfg.p)
    run = (run_casgd if args.algo == "casgd" else run_sgd)(dataset, cfg, cluster)
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
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise ConfigError(f"--tolerance must be finite and non-negative, got {args.tolerance!r}")
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
    cluster = partition(dataset, layout, args.procs)
    # Row-layout runs only materialize x at round ends, so there each s has
    # its own points.  One SGD run is traced at all of them, to the last.
    points = {s: epoch_schedule(m, args.batch, H, s if layout == BLOCK_ROW else 1) for s in s_values}
    schedule = sorted({pt for pts in points.values() for pt in pts}, key=lambda pt: (pt[1], pt[0]))
    cfg = SolverConfig(eta0=args.eta, b=args.batch, total_iterations=schedule[-1][1] if schedule else 0, layout=layout, p=args.procs, seed=args.seed)
    sgd = run_sgd(dataset, cfg, cluster, schedule=schedule)
    sgd_at = dict(zip([(0, 0)] + schedule, zip(sgd.trace, sgd.epoch_solutions)))

    rows = []
    errors = []
    for s in s_values:
        cfg = SolverConfig(eta0=args.eta, b=args.batch, s=s, epochs=args.epochs, layout=layout, p=args.procs, seed=args.seed)
        ca = run_casgd(dataset, cfg, cluster, schedule=points[s])
        base = [sgd_at[pt] for pt in [(0, 0)] + points[s]]
        for (t_sgd, x_sgd), t_ca, x_ca in zip(base, ca.trace, ca.epoch_solutions):
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
    if args.epochs < 1:
        raise ConfigError(f"--epochs must be at least 1, got {args.epochs}")
    H = args.epochs * iterations_per_epoch(args.m, args.b)
    params = CostParams(m=args.m, n=args.n, p=args.p, b=args.b, s=args.s, H=H, f=args.f)
    machine = MachineModel(alpha=args.alpha, beta=args.beta, gamma=args.gamma, omega=args.omega)
    print(f"H={H} logical iterations (epochs={args.epochs}, iterations/epoch={iterations_per_epoch(args.m, args.b)})")
    header = f"{'algorithm':<10} {'layout':<14} {'flops':>16} {'words':>14} {'messages':>10} {'collectives':>12} {'sig_evals':>10} {'modeled_time':>14}"
    print(header)
    for algo in ("sgd", "casgd"):
        for layout in (BLOCK_COLUMN, BLOCK_ROW):
            cost = theoretical_cost(params, algo, layout)
            t = modeled_time(cost, machine)
            print(
                f"{algo:<10} {layout:<14} {cost.flops:>16} {cost.words_moved:>14} "
                f"{cost.messages:>10} {cost.collectives:>12} {cost.sig_evals:>10} {_fmt(t):>14}"
            )
    print(f"crossover_s={crossover_s(params, machine)} (scan over s in [1, {args.s}], column layout)")
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
    costs.add_argument("--omega", type=float, default=DEFAULT_OMEGA, help="flops per nonlinearity evaluation")
    costs.set_defaults(func=cmd_costs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    # Parse and configuration errors are ValueErrors; a truncated or corrupt
    # gzip --data file raises EOFError or zlib.error.
    except (ValueError, OSError, EOFError, zlib.error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
