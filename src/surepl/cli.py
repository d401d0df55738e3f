"""Command-line interface.

Subcommands: gen (synthetic corruption), train, predict, cv, grid, eval,
ttest.  Every invocation is deterministic given its flags and seed; output
files are byte-identical across repeated runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .baselines import KnnConfig
from .data import SyntheticSpec, corrupt, format_float, load_dataset, save_dataset, write_lines
from .harness import (
    DEFAULT_GRID,
    accuracy,
    cross_validate,
    grid_search,
    load_values_map,
    mae_at_k,
    nested_cross_validate,
    read_labels,
    report_from_json,
    report_to_json,
    t_test_two_sample,
    write_labels,
)
from .ridge import load_model, save_model
from .training import TrainConfig, predict, train

__all__ = ["main"]


def _float_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected a comma-separated float list, got {text!r}")
    return values


def _train_config(args) -> TrainConfig:
    """The fit settings, at the (--lambda, --beta) point if the command takes one."""
    point = {"lam": args.lam, "beta": args.beta} if "lam" in args else {}
    return TrainConfig(
        **point,
        max_iter=args.max_iter,
        tol=args.tol,
        init=args.init,
        sigma_override=args.sigma,
    )


def _add_point_flags(sp):
    sp.add_argument("--lambda", dest="lam", type=float, default=0.3)
    sp.add_argument("--beta", type=float, default=0.05)


def _add_fit_flags(sp):
    sp.add_argument("--sigma", type=float, default=None, help="bandwidth override")
    sp.add_argument("--max-iter", type=int, default=100)
    sp.add_argument("--tol", type=float, default=1e-3)
    sp.add_argument("--init", choices=("normalized", "literal"), default="normalized")


def _cmd_gen(args) -> int:
    clean = load_dataset(args.input)
    spec = SyntheticSpec(
        p=args.p,
        r=args.r,
        epsilon=args.epsilon,
        mode="coupled" if args.coupled else "random",
        seed=args.seed,
    )
    save_dataset(corrupt(clean, spec), args.out)
    return 0


def _cmd_train(args) -> int:
    d = load_dataset(args.data)
    model, _, trace = train(d, _train_config(args))
    save_model(model, args.model_out)
    if args.trace_out:
        rows = (f"{i + 1},{format_float(d)}" for i, d in enumerate(trace.delta_p))
        write_lines(args.trace_out, ["iter,delta_p", *rows])
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    d = load_dataset(args.data)
    write_labels(args.out, predict(model, d.features))
    return 0


def _cmd_cv(args) -> int:
    nested = args.lambda_grid is not None or args.beta_grid is not None
    if args.algo == "plknn" and (nested or args.traces):
        flag = "--lambda-grid/--beta-grid" if nested else "--traces"
        raise ValueError(f"{flag} needs --algo sure")
    if nested and args.traces:
        raise ValueError("--traces does not apply to nested cv (--lambda-grid/--beta-grid)")
    d = load_dataset(args.data)
    if args.algo == "sure":
        if nested:
            report = nested_cross_validate(
                d,
                args.lambda_grid or list(DEFAULT_GRID),
                args.beta_grid or list(DEFAULT_GRID),
                folds=args.folds,
                inner_folds=args.inner_folds,
                seed=args.seed,
                base=_train_config(args),
            )
        else:
            report = cross_validate(d, "sure", _train_config(args), args.folds, args.seed,
                                    collect_traces=args.traces)
    else:
        report = cross_validate(d, "plknn", KnnConfig(k=args.k), args.folds, args.seed)
    write_lines(args.report, report_to_json(report).splitlines())
    return 0


def _cmd_grid(args) -> int:
    d = load_dataset(args.data)
    result = grid_search(
        d,
        args.lambda_grid,
        args.beta_grid,
        inner_folds=args.inner_folds,
        seed=args.seed,
        base=_train_config(args),
    )
    for lam, beta, mean in result.entries:
        print(f"lambda={lam!r} beta={beta!r} mean_accuracy={mean!r}")
    print(f"best lambda={result.lam!r} beta={result.beta!r}")
    return 0


def _cmd_eval(args) -> int:
    if args.values is not None and args.mae_k is None:
        raise ValueError("--values needs --mae-k")
    pred = read_labels(args.pred)
    truth = read_labels(args.truth)
    values = None if args.values is None else load_values_map(args.values)
    lines = [f"accuracy {accuracy(pred, truth)!r}"]
    if args.mae_k is not None:
        lines.append(f"mae@{args.mae_k!r} {mae_at_k(pred, truth, values, args.mae_k)!r}")
    print("\n".join(lines))
    return 0


def _cmd_ttest(args) -> int:
    rep_a = report_from_json(Path(args.a).read_text(encoding="utf-8"))
    rep_b = report_from_json(Path(args.b).read_text(encoding="utf-8"))
    res = t_test_two_sample(rep_a.per_fold_accuracy, rep_b.per_fold_accuracy, args.alpha)
    print(f"t {res.t_stat!r}")
    print(f"df {res.df!r}")
    print(f"p {res.p_value!r}")
    print(f"verdict {res.verdict}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surepl",
        description="Partial-label learning toolkit: generation, training, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="corrupt a supervised dataset into a PL dataset")
    gen.add_argument("--in", dest="input", required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--p", type=float, required=True)
    gen.add_argument("--r", type=int, default=1)
    gen.add_argument("--epsilon", type=float, default=0.0)
    gen.add_argument("--coupled", action="store_true")
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_gen)

    tr = sub.add_parser("train", help="train on a PL dataset and save the model")
    tr.add_argument("--data", required=True)
    _add_point_flags(tr)
    _add_fit_flags(tr)
    tr.add_argument("--model-out", required=True)
    tr.add_argument("--trace-out", default=None, help="write iter,delta_p CSV")
    tr.set_defaults(func=_cmd_train)

    pr = sub.add_parser("predict", help="predict labels for a dataset's features")
    pr.add_argument("--model", required=True)
    pr.add_argument("--data", required=True)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=_cmd_predict)

    cv = sub.add_parser("cv", help="k-fold cross-validation")
    cv.add_argument("--data", required=True)
    cv.add_argument("--algo", choices=("sure", "plknn"), default="sure")
    _add_point_flags(cv)
    _add_fit_flags(cv)
    cv.add_argument("--k", type=int, default=5, help="plknn neighbor count")
    cv.add_argument("--lambda-grid", type=_float_list, default=None,
                    help="nested mode: per-fold inner grid search over these lambdas")
    cv.add_argument("--beta-grid", type=_float_list, default=None)
    cv.add_argument("--inner-folds", type=int, default=5)
    cv.add_argument("--folds", type=int, required=True)
    cv.add_argument("--seed", type=int, required=True)
    cv.add_argument("--traces", action="store_true", help="keep per-fold convergence traces")
    cv.add_argument("--report", required=True)
    cv.set_defaults(func=_cmd_cv)

    # no abbreviations: --lambda and --beta would pass for --lambda-grid and --beta-grid
    gr = sub.add_parser("grid", help="inner-CV grid search for lambda and beta",
                        allow_abbrev=False)
    gr.add_argument("--data", required=True)
    gr.add_argument("--lambda-grid", type=_float_list, default=list(DEFAULT_GRID))
    gr.add_argument("--beta-grid", type=_float_list, default=list(DEFAULT_GRID))
    gr.add_argument("--inner-folds", type=int, required=True)
    _add_fit_flags(gr)
    gr.add_argument("--seed", type=int, required=True)
    gr.set_defaults(func=_cmd_grid)

    ev = sub.add_parser("eval", help="score a prediction file against a truth file")
    ev.add_argument("--pred", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--values", default=None, help="label-to-value map for mae")
    ev.add_argument("--mae-k", type=float, default=None)
    ev.set_defaults(func=_cmd_eval)

    tt = sub.add_parser("ttest", help="two-sample t-test between two cv reports")
    tt.add_argument("--a", required=True)
    tt.add_argument("--b", required=True)
    tt.add_argument("--alpha", type=float, default=0.05)
    tt.set_defaults(func=_cmd_ttest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:  # LinAlgError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
