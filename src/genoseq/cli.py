"""Command-line entry point.

Commands: impute, train, predict, benchmark, synth, gradcheck. A single
JSON config file can preset anything; explicit flags win over the config.
A flag that overrides a config key stores its value under that key's name
(``--epochs`` of train is ``rnn.epochs``), and both reach one resolver,
:func:`genoseq.pipeline.resolve_config`. Every piece of randomness derives
from one --seed, fanned out per stage by name, so a fixed seed makes every
file output bit-reproducible on the same BLAS library and thread count.

Exit codes: 0 success, 1 usage/config/parse errors (a size too large to
allocate among them), 2 numerical divergence, 3 output I/O failures.
Diagnostics go to standard error and are controlled by the GENOSEQ_LOG
environment variable (error|warn|info|debug).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import gradcheck, mf, pipeline, rnn, tasks
from .data import (build_sequences, genotype_sequences, genotype_to_csv,
                   parse_genotype_csv, parse_phenotype_csv, phenotype_to_csv, read_json,
                   synth_lowrank_genotypes, synth_phenotypes, synth_population_genotypes,
                   write_csv, write_json)
from .errors import ConfigError, DataError, DivergenceError, GenoseqError
from .linalg import derive_seed

log = logging.getLogger("genoseq.cli")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGED = 2
EXIT_IO = 3

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _setup_logging():
    level = _LOG_LEVELS.get(os.environ.get("GENOSEQ_LOG", "warn").lower(), logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _require_file(path, what: str) -> Path:
    if path is None:
        raise ConfigError(f"no {what} file given")
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} file not found: {p}")
    return p


def _out_dir(values: dict) -> Path:
    out = Path(values.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_impute(args, values: dict) -> int:
    cfg = pipeline.resolve_config(values)
    geno_path = _require_file(values.get("geno"), "genotype")

    geno = parse_genotype_csv(geno_path)
    truth = values.get("truth")
    truth = parse_genotype_csv(_require_file(truth, "truth")) if truth is not None else None
    seed = cfg.seeds()["mf"]
    imputed, curve, accuracy = mf.fit_impute(geno, cfg.mf, seed, truth)

    out = _out_dir(values)
    genotype_to_csv(imputed, out / "imputed.csv")
    curve.to_csv(out / "mf_cost.csv")
    write_json({"config": cfg.to_config(), "seeds": {"master": cfg.seed, "mf": seed},
                **mf.fit_report(curve, accuracy)}, out / "fit_report.json")
    print(f"imputed {int((~geno.observed).sum())} cells; wrote 3 files to {out}")
    return EXIT_OK


def _single_trait(cfg) -> int:
    """The one trait a model is trained or evaluated on."""
    if len(cfg.traits) != 1:
        raise ConfigError(f"traits must name exactly one trait for this command, "
                          f"got {list(cfg.traits)}")
    return cfg.traits[0]


def cmd_train(args, values: dict) -> int:
    cfg = pipeline.resolve_config(values)
    trait = _single_trait(cfg)
    geno_path = _require_file(values.get("geno"), "genotype")
    pheno_path = _require_file(values.get("pheno"), "phenotype")

    geno = parse_genotype_csv(geno_path)
    phenos = parse_phenotype_csv(pheno_path)

    split = cfg.split(geno.samples)
    batch = build_sequences(geno, phenos, trait, cfg.data.chunk_width)
    trained, result = pipeline.train_trait(batch, split, cfg, trait)
    if result.error is not None:
        raise result.error

    out = _out_dir(values)
    rnn.save_checkpoint(replace(trained, snps=geno.snps), out / "checkpoint.json")
    result.curve.to_csv(out / "train_curve.csv")
    metrics = {name: {**m._asdict(), "n": result.n_samples[name]}
               for name, m in result.metrics.items()}
    write_json({"config": cfg.to_config(), "trait": trait, "metrics": metrics},
                out / "train_report.json")
    print(f"trained {cfg.rnn.cell} on trait {trait}; wrote 3 files to {out}")
    return EXIT_OK


def cmd_predict(args, values: dict) -> int:
    cfg = pipeline.resolve_config(values)
    trait = _single_trait(cfg)
    ckpt_path = _require_file(args.checkpoint, "checkpoint")
    geno_path = _require_file(values.get("geno"), "genotype")

    params = rnn.load_checkpoint(ckpt_path)
    if params.n_out != 1:
        raise ConfigError(f"predict needs a one-output model; the checkpoint has {params.n_out}")
    geno = parse_genotype_csv(geno_path)
    if params.snps is not None and params.snps != geno.snps:
        raise DataError(f"the checkpoint was trained on {params.snps} SNPs, {geno_path} has {geno.snps}")

    pheno_path = values.get("pheno")
    if pheno_path is not None:
        phenos = parse_phenotype_csv(_require_file(pheno_path, "phenotype"))
        batch = build_sequences(geno, phenos, trait, params.n_in)
        inputs, sample_ids = batch.inputs, batch.sample_indices
    else:
        inputs, sample_ids = genotype_sequences(geno, params.n_in), np.arange(geno.samples)
    with np.errstate(over="ignore", invalid="ignore"):
        preds = rnn.predict(params, inputs)
        metrics = {"correlation": rnn.pearson_correlation(preds, batch.targets),
                   "mse": rnn.loss_mse(preds, batch.targets), "n": len(batch)} if pheno_path else {}
    if not np.isfinite([*preds[:, 0], metrics.get("mse", 0.0)]).all():
        raise DataError(f"the checkpoint {ckpt_path} gives non-finite predictions or mse")

    out = _out_dir(values)
    write_csv(out / "predictions.csv", ("sample", "prediction"),
              ((str(int(idx)), repr(float(p))) for idx, p in zip(sample_ids, preds[:, 0])))

    if metrics:
        write_json(metrics, out / "predict_metrics.json")
        print(f"predicted {len(preds)} samples; wrote 2 files to {out}")
    else:
        print(f"predicted {len(preds)} samples; wrote 1 file to {out}")
    return EXIT_OK


def cmd_benchmark(args, values: dict) -> int:
    if "rnn.cell" in values:
        raise ConfigError("benchmark compares the cells named by --cells; remove rnn.cell")
    # the cell comparison trains at a higher default learning rate than train
    cfg = pipeline.resolve_config({"rnn.learning_rate": 0.1, **values})
    config = cfg.to_config()
    del config["rnn"]["cell"]  # rejected above: --cells names the compared cells
    cells = args.cells if args.cells else list(rnn.CELLS)
    batch = tasks.make_task(args.task, args.sequences, args.length,
                            derive_seed(cfg.seed, f"benchmark/{args.task}"))
    comparison = pipeline.compare_on_batch(batch, cells, cfg.rnn, cfg.seed)
    out = _out_dir(values)
    for cell in cells:
        comparison.curves[cell].to_csv(out / f"{cell}_curve.csv")
    write_json({"task": args.task, "length": args.length, "sequences": args.sequences,
                "config": config, **comparison.to_json_dict()},
                out / "benchmark.json")
    order = " < ".join(comparison.ordering)
    print(f"benchmark {args.task}(length={args.length}): final-loss order {order}; "
          f"wrote {len(cells) + 1} files to {out}")
    return EXIT_OK


def cmd_synth(args, values: dict) -> int:
    seed = pipeline.resolve_config(values).seed
    gen_seed = derive_seed(seed, "synth/geno")
    generate = (synth_lowrank_genotypes if args.generator == "lowrank"
                else synth_population_genotypes)
    holed, truth = generate(args.samples, args.snps, args.rank, args.missing_frac, gen_seed,
                            args.missing_mode)
    phenos = synth_phenotypes(truth, traits=args.n_traits, seed=derive_seed(seed, "synth/pheno"),
                              missing_per_trait=args.trait_missing)
    out = _out_dir(values)
    genotype_to_csv(holed, out / "geno_holed.csv")
    genotype_to_csv(truth, out / "geno_truth.csv")
    phenotype_to_csv(phenos, out / "pheno.csv")
    meta = {"generator": args.generator, "samples": args.samples, "snps": args.snps,
            "rank": args.rank, "missing_frac": args.missing_frac,
            "missing_mode": args.missing_mode, "traits": args.n_traits,
            "trait_missing": args.trait_missing, "seed": seed}
    write_json(meta, out / "synth_meta.json")
    print(f"wrote synthetic dataset ({args.samples}x{args.snps}, "
          f"{int((~holed.observed).sum())} holes) to {out}")
    return EXIT_OK


def cmd_gradcheck(args, values: dict) -> int:
    seed = pipeline.resolve_config(values).seed
    if not 0 < args.threshold < float("inf"):
        raise ConfigError(f"threshold must be a finite number > 0, got {args.threshold}")
    scopes = args.cells if args.cells else None
    results = gradcheck.run_all(args.trials, seed, scopes, args.threshold)
    passed = {scope: err < args.threshold for scope, err in results.items()}
    for scope, err in results.items():
        print(f"{scope:14s} max_rel_err={err:.3e}  {'ok' if passed[scope] else 'FAIL'}")
    if not all(passed.values()):
        print(f"gradient check failed at threshold {args.threshold:g}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="genoseq",
                     description="Genotype imputation and phenotype prediction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int, help="master seed (default 0)")
        p.add_argument("--out", help="output directory (default .)")

    def trait(p):
        p.add_argument("--trait", dest="traits", metavar="INDEX", type=int, nargs=1,
                       help="trait column index (default 0)")

    p = sub.add_parser("impute", help="fit the factorization and fill missing genotypes")
    shared(p)
    p.add_argument("--geno", help="genotype CSV with missing cells")
    p.add_argument("--truth", help="fully observed genotype CSV for accuracy reporting")
    p.add_argument("--features", dest="mf.features", type=int, help="latent feature count")
    p.add_argument("--alpha", dest="mf.alpha", type=float, help="learning rate")
    p.add_argument("--beta", dest="mf.beta", type=float, help="regularization weight")
    p.add_argument("--epochs", dest="mf.epochs", type=int, help="training epochs")
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("train", help="train a phenotype model on a hole-free genotype file")
    shared(p)
    p.add_argument("--geno", help="fully observed genotype CSV")
    p.add_argument("--pheno", help="phenotype CSV")
    trait(p)
    p.add_argument("--cell", dest="rnn.cell", choices=rnn.CELLS, help="recurrent cell kind")
    p.add_argument("--hidden", dest="rnn.hidden", type=int, help="hidden units")
    p.add_argument("--lr", dest="rnn.learning_rate", type=float, help="learning rate")
    p.add_argument("--epochs", dest="rnn.epochs", type=int, help="training epochs")
    p.add_argument("--chunk-width", dest="data.chunk_width", type=int, help="SNPs per timestep")
    p.add_argument("--success-tolerance", dest="success_tolerance", type=float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="load a checkpoint and emit predictions")
    shared(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--geno", help="fully observed genotype CSV")
    p.add_argument("--pheno", help="phenotype CSV for metrics (optional)")
    trait(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("benchmark", help="compare cells on a synthetic memory task")
    shared(p)
    p.add_argument("--task", choices=tasks.TASKS, default="lag")
    p.add_argument("--length", type=int, default=100, help="sequence length / lag")
    p.add_argument("--sequences", type=int, default=24)
    p.add_argument("--cells", nargs="+", choices=rnn.CELLS,
                   help="cells to compare (default: all three)")
    p.add_argument("--hidden", dest="rnn.hidden", type=int)
    p.add_argument("--lr", dest="rnn.learning_rate", type=float, help="learning rate (default 0.1)")
    p.add_argument("--epochs", dest="rnn.epochs", type=int)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("synth", help="emit a synthetic genotype/phenotype dataset")
    shared(p)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--snps", type=int, default=200)
    p.add_argument("--rank", type=int, default=5, help="rank (or group count)")
    p.add_argument("--missing-frac", dest="missing_frac", type=float, default=0.1)
    p.add_argument("--missing-mode", dest="missing_mode", choices=("entry", "snp_block"),
                   default="entry")
    p.add_argument("--generator", choices=("lowrank", "population"), default="lowrank")
    p.add_argument("--traits", dest="n_traits", metavar="TRAITS", type=int, default=2)
    p.add_argument("--trait-missing", dest="trait_missing", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("gradcheck", help="finite-difference check of every analytic gradient")
    shared(p)
    p.add_argument("--trials", type=int, default=30, help="instances per scope")
    p.add_argument("--cells", nargs="+",
                   help="scopes to check: mf and/or cell names (default: all)")
    p.add_argument("--threshold", type=float, default=gradcheck.DEFAULT_THRESHOLD)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(str(e), file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as e:  # --help
        return int(e.code or 0)

    try:
        config = (pipeline.flatten_config(read_json(_require_file(args.config, "config"),
                                                    "config file")) if args.config else {})
        if config:
            log.debug("loaded config with keys %s", sorted(config))
        flags = {k: v for k, v in vars(args).items() if v is not None}
        return args.func(args, {**config, **flags})
    except DivergenceError as e:
        print(f"genoseq: divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except (GenoseqError, MemoryError) as e:  # MemoryError: a size too large to allocate
        print(f"genoseq: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"genoseq: i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
