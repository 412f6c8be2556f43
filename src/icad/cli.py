"""Command-line entry point.

Subcommands: gen-data, train-vae, train-svdd, calibrate, detect, simulate,
tune, bench. Exit codes: 0 clean, 2 alarm raised (detect), 1 any error
(including usage errors). Every command records its resolved configuration
and seed next to its primary output; identical flags and seed reproduce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import math
import sys
from pathlib import Path

import numpy as np

from . import conformal, episodes, models, nonconformity, persistence
from .neural import BLOCK_ROWS

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ALARM = 2

METHODS = ("vae", "svdd")


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # no prefix matching, in the subcommands' parsers too (they are built by
    # this class): bench --N must not be read as --N-list
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {exc}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _resolve_flag(args, name: str, read: bool, default, reader: str) -> None:
    """A flag that defaults to None is set to ``default`` on a path that reads
    it; given on any other path, it is a usage error naming its ``reader``."""
    if not read and getattr(args, name) is not None:
        raise CliError(f"--{name.replace('_', '-')} is read only {reader}")
    if read and getattr(args, name) is None:
        setattr(args, name, default)


def _write_run_config(target: Path, args: argparse.Namespace) -> None:
    persistence.save_config(target, {k: _fmt(v) for k, v in vars(args).items() if k != "func"})


def _config_sidecar(out: Path) -> Path:
    return out.with_name(out.name + ".config.txt")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write the CSV whole or not at all, through the atomic writer."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    persistence._atomic_write(path, [text.getvalue().encode()])


def _step_lines(leads, results, sep: str) -> list[str]:
    """One CSV line per step result: its lead cells, then score, the p-values
    joined by ``sep``, log_m, s and alarm, each cell as ``_fmt`` writes it.
    The results share one number of p-values, as a pipeline's do.

    ``score`` is one axis-1 mean over the results' score rows: numpy reduces
    each contiguous row with the loop ``np.mean`` runs on a ``scores`` tuple,
    so every mean has the bits of ``StepResult.score`` at one call a chunk."""
    rows = np.array([res.scores for res in results])
    # as in StepResult.score, one score is its own mean: a mean takes -0.0 to 0.0
    scores = (rows[:, 0] if rows.shape[1] == 1 else rows.mean(axis=1)).tolist()
    # one template a chunk, so each line is one %-format: %.17g is _fmt's float
    # rendering, and %d writes a bool alarm as 1 or 0
    p_cells = sep.join(["%.17g"] * len(results[0].p_values))
    line = f"%s,%.17g,{p_cells},%.17g,%.17g,%d"
    return [line % (lead, score, *res.p_values, res.m_log, res.s, res.alarm)
            for lead, score, res in zip(leads, scores, results)]


def _write_step_csv(path: Path, header: list[str], chunks) -> None:
    """Write a per-step table whole or not at all, its lines already
    formatted and handed over as an iterable of line lists, with the bytes
    ``_write_csv`` would write: every cell is a number, or numbers joined by
    ``;``, which the csv module never quotes, and its lines end in CRLF, the
    last one too. Each list is encoded and written as it comes, so a
    generator of lists is never held whole."""
    def encoded():
        yield f"{','.join(header)}\r\n".encode()
        for lines in chunks:
            yield "\r\n".join([*lines, ""]).encode()

    persistence._atomic_write(path, encoded())


def _scene(dim: int, seed: int) -> episodes.SceneGenerator:
    """The scene generator whose flattened square frames have ``dim`` pixels."""
    side = math.isqrt(dim) if dim >= 16 else 0  # isqrt refuses a negative dim
    if side * side != dim or side < 4:
        raise CliError(f"frame dimension must be a perfect square >= 16, got {dim}")
    return episodes.SceneGenerator(side=side, seed=seed)


def _cmd_gen_data(args) -> int:
    out = Path(args.out)
    if not 0 <= args.r_min <= args.r_max < math.inf:
        raise CliError(f"need finite 0 <= r-min <= r-max, got {args.r_min} and {args.r_max}")
    if args.r_max > episodes.MAX_LEVEL:
        raise CliError(f"--r-max {args.r_max:g} is above the largest corruption level, "
                       f"{episodes.MAX_LEVEL:g}")
    gen = _scene(args.dim, args.seed)
    r_values, blocks = episodes.iter_dataset(gen, args.count, (args.r_min, args.r_max))
    persistence.save_dataset_blocks(out, blocks, args.count, args.dim, r_values)
    _write_run_config(_config_sidecar(out), args)
    print(f"wrote {args.count} examples of dimension {args.dim} to {out}")
    return EXIT_OK


def _parse_hidden(text: str) -> tuple[int, ...]:
    dims = tuple(int(p) for p in text.split(",") if p)
    if not dims or min(dims) < 1:
        raise CliError(f"bad hidden layer spec {text!r}")
    return dims


def _train_config(args) -> models.TrainConfig:
    return models.TrainConfig(
        epochs=(args.epochs, args.epochs2),
        learning_rates=(args.lr, args.lr2),
        batch_size=args.batch,
        seed=args.seed,
    )


def _write_loss_csv(out: Path, curve) -> None:
    _write_csv(
        out.with_name(out.name + ".loss.csv"),
        ["epoch", "loss"],
        [(i + 1, loss) for i, loss in enumerate(curve)],
    )


def _cmd_train_vae(args) -> int:
    out = Path(args.out)
    data, _ = persistence.load_dataset(args.data)
    model = models.VaeModel.build(
        data.shape[1], latent_dim=args.latent, hidden=_parse_hidden(args.hidden), seed=args.seed
    )
    curve = models.train_vae(model, data, _train_config(args))
    persistence.save_model(out, model)
    _write_loss_csv(out, curve)
    _write_run_config(_config_sidecar(out), args)
    print(f"trained VAE for {len(curve)} epochs; final loss {curve[-1]:.6g}; saved to {out}")
    return EXIT_OK


def _cmd_train_svdd(args) -> int:
    out = Path(args.out)
    _resolve_flag(args, "pre_epochs", args.pretrain, 60, "with --pretrain")
    _resolve_flag(args, "pre_epochs2", args.pretrain, 20, "with --pretrain")
    data, _ = persistence.load_dataset(args.data)
    model = models.SvddModel.build(
        data.shape[1],
        output_dim=args.out_dim,
        hidden=_parse_hidden(args.hidden),
        weight_decay=args.weight_decay,
        seed=args.seed,
    )
    cfg = _train_config(args)
    if args.pretrain:
        pre_cfg = dataclasses.replace(cfg, epochs=(args.pre_epochs, args.pre_epochs2))
        models.pretrain_with_autoencoder(model, data, pre_cfg)
    else:
        models.svdd_init_center(model, data)
    losses, distances = models.train_svdd(model, data, cfg)
    persistence.save_model(out, model)
    _write_loss_csv(out, losses)
    _write_run_config(_config_sidecar(out), args)
    print(
        f"trained SVDD for {len(losses)} epochs; mean distance "
        f"{distances[0]:.6g} -> {distances[-1]:.6g}; saved to {out}"
    )
    return EXIT_OK


def _load_model(path: str, method: str):
    """The model in the file at ``path``, which must hold a ``method`` model."""
    model = persistence.load_model(path)
    kind = "vae" if isinstance(model, models.VaeModel) else "svdd"
    if kind != method:
        raise CliError(f"{path} holds a {kind} model, expected {method}")
    return model


def _cmd_calibrate(args) -> int:
    out = Path(args.out)
    _resolve_flag(args, "seed", args.scorer == "vae", 0, "by the vae scorer")
    scorer_cls = nonconformity.VaeScorer if args.scorer == "vae" else nonconformity.SvddScorer
    scorer = scorer_cls(_load_model(args.model, args.scorer))
    # scored a block at a time as the file is read
    cal_examples = persistence.DatasetBlocks(args.cal_data)
    cal = conformal.calibration_scores(scorer, cal_examples, args.seed)
    persistence.save_calibration(out, cal)
    _write_run_config(_config_sidecar(out), args)
    print(f"calibrated {len(cal)} scores with the {cal.scorer_kind} scorer; saved to {out}")
    return EXIT_OK


def _tau(method: str, tau: float | None) -> float:
    if tau is None:
        return 156.0 if method == "vae" else 14.0
    if not math.isfinite(tau):  # the detectors read inf as "never alarm"; no command asks that
        raise CliError(f"tau must be finite, got {tau}")
    return tau


def _pipelines(method, model_path, cal_path, delta, tau, seed):
    """The ``method`` model at ``model_path``, and ``make(n)``, which builds a
    fresh pipeline over it and the calibration at ``cal_path`` with N samples
    (vae) or an N-frame window (svdd)."""
    model = _load_model(model_path, method)
    cal = persistence.load_calibration(cal_path)
    tau = _tau(method, tau)
    if method == "vae":
        return model, lambda n: conformal.VaePipeline(model, cal, n, delta, tau, seed)
    return model, lambda n: conformal.SvddPipeline(model, cal, n, tau, seed)


def _cmd_detect(args) -> int:
    out = Path(args.out)
    _resolve_flag(args, "delta", args.method == "vae", 6.0, "by the vae method")
    _, make = _pipelines(args.method, args.model, args.cal, args.delta, args.tau, args.seed)
    pipeline = make(args.N)  # before the input is read: a binding error comes first
    # a truncated input raises here, before the CSV's temporary file is opened
    blocks = persistence.DatasetBlocks(args.input)
    p_cols = [f"p_{k + 1}" for k in range(args.N)] if args.method == "vae" else ["p"]
    alarmed = False

    def chunks():
        """The input a block at a time, each block through ``steps`` in the
        chunks tune and simulate use, each chunk's lines as it is stepped."""
        nonlocal alarmed
        for b, block in enumerate(blocks):
            for lo in range(0, len(block), episodes.EPISODE_CHUNK):
                results = pipeline.steps(block[lo : lo + episodes.EPISODE_CHUNK])
                alarmed = alarmed or any(res.alarm for res in results)
                first = b * BLOCK_ROWS + lo
                yield _step_lines(range(first, first + len(results)), results, ",")

    # streamed into a temporary file that is renamed after the last block
    _write_step_csv(out, ["step", "score", *p_cols, "log_m", "s", "alarm"], chunks())
    _write_run_config(_config_sidecar(out), args)
    print(f"processed {len(blocks)} steps; {'alarm raised' if alarmed else 'no alarm'}")
    return EXIT_ALARM if alarmed else EXIT_OK


_SIM_KEYS = ("model", "cal", "n", "delta", "tau", "max_steps", "ood_fraction", "ood_margin", "seed")


def _read_sim_config(path: str) -> dict[str, str]:
    cfg = persistence.load_config(path)
    unknown = [key for key in cfg if key not in _SIM_KEYS]
    if unknown:
        raise CliError(f"simulation config {path} has unknown keys: {', '.join(unknown)}")
    for key in ("model", "cal"):
        if key not in cfg:
            raise CliError(f"simulation config {path} is missing {key!r}")
    return cfg


def _sim_params(cfg: dict[str, str], path: str, method: str, seed_override: int | None):
    def get(key: str, kind: type, default):
        """``cfg[key]`` read as ``kind`` (int or float), or ``default`` where absent."""
        if key not in cfg:
            return default
        try:
            return kind(cfg[key])
        except ValueError:
            expected = "an integer" if kind is int else "a number"
            message = f"simulation config {path}: {key}={cfg[key]} is not {expected}"
            raise CliError(message) from None

    n = get("n", int, 10)
    delta = get("delta", float, 6.0)
    tau = get("tau", float, _tau(method, None))
    max_steps = get("max_steps", int, 150)
    ood_fraction = get("ood_fraction", float, 0.5)
    ood_margin = get("ood_margin", float, 5.0)
    # read even where --seed overrides it: a value that does not parse is an error
    seed = get("seed", int, 0)
    if seed < 0:
        raise CliError(
            f"simulation config {path}: seed={cfg['seed']} is not a non-negative integer")
    if seed_override is not None:
        seed = seed_override
    return n, delta, tau, max_steps, ood_fraction, ood_margin, seed


def _sim_setup(args):
    cfg = _read_sim_config(args.config)
    n, delta, tau, max_steps, ood_fraction, ood_margin, seed = _sim_params(
        cfg, args.config, args.method, args.seed
    )
    model, make = _pipelines(args.method, cfg["model"], cfg["cal"], delta, tau, seed)
    gen = _scene(model.input_dim, seed)
    schedules = episodes.make_suite_schedules(args.episodes, ood_fraction, seed, ood_margin)
    # one checked pipeline per command; each episode starts from a fresh copy
    return gen, make(n).fresh, schedules, (n, delta, tau), max_steps, seed


def _cmd_simulate(args) -> int:
    gen, factory, schedules, (n, delta, tau), max_steps, seed = _sim_setup(args)
    out_dir = Path(args.out)
    ours = {f"episode_{i:03d}.csv" for i in range(args.episodes)}
    stale = sorted(p.name for p in out_dir.glob("episode_*.csv") if p.name not in ours)
    if stale:
        raise CliError(f"{out_dir / stale[0]} is not from a {args.episodes}-episode run; "
                       "remove it or use another --out")
    metrics, diagnostics = episodes.run_suite(
        gen, schedules, factory, max_steps=max_steps, seed=seed + 10000
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "episodes.csv",
        ["episode", "label", "onset_step", "alarm_step", "verdict", "delay_frames"],
        [
            (i, r.label, r.onset_step, r.alarm_step, r.verdict, r.delay_frames)
            for i, r in enumerate(metrics.results)
        ],
    )
    params = f"{n}, {delta}, {tau}" if args.method == "vae" else f"{n}, {tau}"
    _write_csv(
        out_dir / "summary.csv",
        ["parameters", "false_positive", "false_negative", "avg_delay_frames"],
        [(
            params,
            f"{metrics.false_positives}/{metrics.in_dist_count}",
            f"{metrics.false_negatives}/{metrics.ood_count}",
            metrics.mean_delay,
        )],
    )
    for i, steps in enumerate(diagnostics):
        _write_step_csv(
            out_dir / f"episode_{i:03d}.csv",
            ["step", "r", "score", "p_values", "log_m", "s", "alarm"],
            [_step_lines([f"{t},{r:.17g}" for t, r, _ in steps], [res for *_, res in steps], ";")],
        )
    _write_run_config(out_dir / "config.txt", args)
    delay = "n/a" if metrics.mean_delay is None else f"{metrics.mean_delay:.2f}"
    print(
        f"{args.episodes} episodes: FP {metrics.false_positives}/{metrics.in_dist_count}, "
        f"FN {metrics.false_negatives}/{metrics.ood_count}, mean delay {delay} frames"
    )
    return EXIT_OK


def _parse_grid(text: str, method: str) -> tuple[list[float] | None, list[float]]:
    deltas: list[float] | None = None
    taus: list[float] | None = None
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise CliError(f"bad grid component {part!r}; expected name=v1,v2,...")
        name, values = part.split("=", 1)
        parsed = [float(v) for v in values.split(",") if v]
        if not parsed:
            raise CliError(f"empty grid for {name!r}")
        if name.strip() == "delta":
            for delta in parsed:  # before any episode runs, as each tau is
                if not math.isfinite(delta):
                    raise CliError(f"delta must be finite, got {delta}")
            deltas = parsed
        elif name.strip() == "tau":
            taus = [_tau(method, tau) for tau in parsed]
        else:
            raise CliError(f"unknown grid dimension {name.strip()!r}")
    if taus is None:
        raise CliError("grid must include tau=...")
    if method == "vae" and deltas is None:
        raise CliError("the vae grid must include delta=...")
    if method == "svdd" and deltas is not None:
        raise CliError("the svdd grid takes no delta=...; its threshold detector has no drift")
    return deltas, taus


def _cmd_tune(args) -> int:
    out = Path(args.out)
    deltas, taus = _parse_grid(args.grid, args.method)
    gen, factory, schedules, _, max_steps, seed = _sim_setup(args)
    traces = episodes.collect_traces(gen, schedules, factory, max_steps, seed=seed + 10000)
    best, points = episodes.tune_thresholds(traces, taus, deltas)
    if best is None:
        raise CliError("no grid point achieved zero false positives")
    _write_csv(
        out,
        ["delta", "tau", "false_positives", "false_negatives", "mean_delay", "objective"],
        [(p.delta, p.tau, p.false_positives, p.false_negatives, p.mean_delay, p.objective)
         for p in points],
    )
    _write_run_config(_config_sidecar(out), args)
    delta_part = "" if best.delta is None else f"delta={_fmt(best.delta)} "
    delay = "n/a" if best.mean_delay is None else f"{best.mean_delay:.2f}"
    print(
        f"best: {delta_part}tau={_fmt(best.tau)} fp={best.false_positives} "
        f"fn={best.false_negatives} mean_delay={delay}"
    )
    return EXIT_OK


def _cmd_bench(args) -> int:
    out = Path(args.out)
    _resolve_flag(args, "delta", args.method == "vae", 6.0, "by the vae method")
    model, make = _pipelines(args.method, args.model, args.cal, args.delta, args.tau, args.seed)
    gen = _scene(model.input_dim, args.seed)
    rows = episodes.benchmark_timing(make, gen, args.N_list, steps=args.steps, seed=args.seed)
    _write_csv(
        out,
        ["method", "n", "min", "q1", "q2", "q3", "max"],
        [(r.method, r.n, r.min_ms, r.q1_ms, r.q2_ms, r.q3_ms, r.max_ms) for r in rows],
    )
    _write_run_config(_config_sidecar(out), args)
    for r in rows:
        print(f"{r.method} N={r.n}: median {r.q2_ms:.3f} ms/step")
    return EXIT_OK


def _add_train_flags(p: _Parser) -> None:
    p.add_argument("--data", required=True, help="training DatasetFile")
    p.add_argument("--out", required=True, help="output ModelFile")
    p.add_argument("--epochs", type=_positive_int, default=300, help="searching-phase epochs")
    p.add_argument("--epochs2", type=int, default=100, help="fine-tuning-phase epochs")
    p.add_argument("--lr", type=float, default=1e-3, help="searching-phase learning rate")
    p.add_argument("--lr2", type=float, default=1e-4, help="fine-tuning-phase learning rate")
    p.add_argument("--batch", type=_positive_int, default=64)
    p.add_argument("--hidden", default="64,32", help="hidden layer widths, comma-separated")
    p.add_argument("--seed", type=_nonnegative_int, default=0)


def build_parser() -> _Parser:
    parser = _Parser(prog="icad", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic scene dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=_positive_int, required=True)
    p.add_argument("--dim", type=int, default=256, help="example dimension (a square)")
    p.add_argument("--r-min", type=float, default=0.0, help="lowest corruption level")
    p.add_argument("--r-max", type=float, default=20.0,
                   help=f"highest corruption level, at most {episodes.MAX_LEVEL:g}")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train-vae", help="train the reconstruction model")
    _add_train_flags(p)
    p.add_argument("--latent", type=_positive_int, default=8)
    p.set_defaults(func=_cmd_train_vae)

    p = sub.add_parser("train-svdd", help="train the distance-to-center model")
    _add_train_flags(p)
    p.add_argument("--out-dim", type=_positive_int, default=8)
    p.add_argument("--weight-decay", type=float, default=1e-4)
    p.add_argument("--pretrain", action="store_true",
                   help="initialize the mapper from a trained autoencoder")
    p.add_argument("--pre-epochs", type=_positive_int, help="with --pretrain; default 60")
    p.add_argument("--pre-epochs2", type=int, help="with --pretrain; default 20")
    p.set_defaults(func=_cmd_train_svdd)

    p = sub.add_parser("calibrate", help="compute sorted calibration scores")
    p.add_argument("--scorer", choices=METHODS, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--model", required=True, help="ModelFile of the --scorer kind")
    p.add_argument("--cal-data", required=True, help="calibration DatasetFile")
    p.add_argument("--seed", type=_nonnegative_int,
                   help="vae only: seeds the one reconstruction sample per example; default 0")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("detect", help="stream a dataset through a detection pipeline")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--cal", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--N", type=_positive_int, default=10,
                   help="reconstruction samples (vae) or window size (svdd)")
    p.add_argument("--delta", type=float, help="vae only: CUSUM drift; default 6")
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", required=True, help="per-step diagnostics CSV")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("simulate", help="run drift episodes and report metrics")
    p.add_argument("--episodes", type=_positive_int, required=True)
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--config", required=True, help="key=value run configuration")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=_nonnegative_int, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("tune", help="grid-search detector thresholds on a tuning suite")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--grid", required=True,
                   help='e.g. "delta=2,4,6;tau=40,80" (vae) or "tau=8,12,16" (svdd)')
    p.add_argument("--episodes", type=_positive_int, default=30)
    p.add_argument("--out", required=True, help="grid results CSV")
    p.add_argument("--seed", type=_nonnegative_int, default=None)
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("bench", help="per-step execution-time quartiles")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--cal", required=True)
    p.add_argument("--N-list", dest="N_list", type=_int_list, default=[5, 10, 20])
    p.add_argument("--steps", type=_positive_int, default=1000)
    p.add_argument("--delta", type=float, help="vae only: CUSUM drift; default 6")
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, persistence.PersistenceError, ValueError, RuntimeError, OSError) as exc:
        print(f"icad: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
