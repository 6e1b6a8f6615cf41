"""Which program functions the traced run wraps, and the per-layer metrics.

Every wrapper is installed from outside the program (see
:func:`tracing.patched`); nothing under ``src/`` knows it is traced.
:data:`LAYER_METRICS` is the full per-layer list, in the order the
benchmark prints it. A layer that a workload does not run reports 0.
"""

from __future__ import annotations

import os
import time

import numpy as np

from bench_stats import median
from tracing import Tracer

CELLS = ("relu_identity", "lstm", "simple_tanh")
PAPER_MF_SHAPE = (604, 1980, 400)  # samples, SNPs, features


def _layer_metric_names() -> list[tuple[str, str]]:
    names = [
        ("impute_s", "s"), ("train_s", "s"),
        ("mf_epochs_per_s", "1/s"), ("rnn_seq_steps_per_s", "1/s"),
        ("trace.overhead_pct", "%"),
        ("mf.mf_epoch.ms", "ms"), ("mf.mf_epoch.self_ms", "ms"),
        ("mf.mf_gradients.ms", "ms"), ("mf.mf_cost.ms", "ms"),
        ("mf.residuals_per_epoch", "count"),
        ("mf.full_batch.gflops", "GFLOP/s"), ("machine.gemm_gflops", "GFLOP/s"),
        ("mf.per_entry.cells_per_s", "1/s"),
    ]
    for c in CELLS:
        names += [(f"rnn.epoch.{c}.ms", "ms"), (f"rnn.rnn_forward.{c}.ms", "ms"),
                  (f"rnn.backward.{c}.ms", "ms"), (f"rnn.clip_gradients.{c}.ms", "ms"),
                  (f"rnn.sgd_step.{c}.ms", "ms"), (f"rnn.forward_per_epoch.{c}", "count"),
                  (f"rnn.clip_rate.{c}", "ratio")]
    names += [
        ("rnn.lstm_relu_epoch_ratio", "ratio"), ("rnn.predict.ms", "ms"),
        ("rnn.save_checkpoint.ms", "ms"), ("rnn.load_checkpoint.ms", "ms"),
        ("linalg.sigmoid.per_lstm_step", "count"),
        ("linalg.sigmoid.share_of_lstm_forward", "ratio"),
        ("data.parse_genotype_csv.s", "s"), ("data.parse_genotype_csv.mb_per_s", "MB/s"),
        ("data.genotype_to_csv.s", "s"), ("data.parse_phenotype_csv.s", "s"),
        ("data.build_sequences.s", "s"),
        ("pipeline.compare_on_batch.s", "s"), ("pipeline.evaluate_split.ms", "ms"),
        ("cli.impute.s", "s"), ("cli.train.s", "s"), ("cli.predict.s", "s"),
        ("cli.benchmark.s", "s"), ("cli.self_s", "s"),
        ("tasks.make_task.ms", "ms"),
    ]
    return names


LAYER_METRICS = _layer_metric_names()


def _describe_mf_fit(args, kwargs, result):
    g, cfg = args[0], args[1]
    return {"mode": cfg.mode, "samples": g.samples, "snps": g.snps,
            "features": cfg.features, "observed": int(g.observed.sum())}


def _describe_train(args, kwargs, result):
    _, curve = result
    return {"cell": args[0].cell, "epochs": len(curve)}


def _describe_forward(args, kwargs, result):
    b, steps, _ = result.inputs.shape
    return {"cell": args[0].cell, "batch": b, "steps": steps}


def _describe_parse(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def instrumentation(tracer: Tracer):
    """(module, attribute, wrapper) triples for :func:`tracing.patched`.

    Names imported into ``genoseq.cli`` by ``from ... import`` are patched
    there; ``mf``, ``rnn``, ``pipeline`` and ``tasks`` functions are looked
    up as module globals at call time and are patched in their own module.
    ``linalg.sigmoid`` is imported by name into ``genoseq.rnn``.
    """
    from genoseq import cli, mf, pipeline, rnn, tasks

    def span(module, attr, name, describe=None):
        return module, attr, tracer.span(name, getattr(module, attr), describe)

    def counter(module, attr, name):
        return module, attr, tracer.counter(name, getattr(module, attr))

    return [
        span(cli, "parse_genotype_csv", "data.parse_genotype_csv", _describe_parse),
        span(cli, "genotype_to_csv", "data.genotype_to_csv"),
        span(cli, "parse_phenotype_csv", "data.parse_phenotype_csv"),
        span(cli, "build_sequences", "data.build_sequences"),
        span(mf, "mf_fit", "mf.mf_fit", _describe_mf_fit),
        span(mf, "mf_epoch", "mf.mf_epoch"),
        span(mf, "mf_gradients", "mf.mf_gradients"),
        span(mf, "mf_cost", "mf.mf_cost"),
        counter(mf, "_masked_residual", "mf.masked_residual"),
        span(rnn, "train", "rnn.train", _describe_train),
        span(rnn, "rnn_forward", "rnn.rnn_forward", _describe_forward),
        span(rnn, "bptt_gradients", "rnn.bptt_gradients"),
        span(rnn, "clip_gradients", "rnn.clip_gradients",
             lambda args, kwargs, result: {"clipped": result is not args[0]}),
        span(rnn, "sgd_step", "rnn.sgd_step"),
        span(rnn, "predict", "rnn.predict"),
        span(rnn, "save_checkpoint", "rnn.save_checkpoint"),
        span(rnn, "load_checkpoint", "rnn.load_checkpoint"),
        counter(rnn, "sigmoid", "linalg.sigmoid"),
        span(pipeline, "compare_on_batch", "pipeline.compare_on_batch"),
        span(pipeline, "evaluate_split", "pipeline.evaluate_split"),
        span(tasks, "make_task", "tasks.make_task"),
    ]


def gemm_gflops(samples: int, snps: int, features: int, repeats: int = 5) -> float:
    """GFLOP/s of a plain (samples x features) @ (features x snps) GEMM, median of repeats."""
    p = np.full((samples, features), 0.5)
    q = np.full((snps, features), 0.25)
    p @ q.T  # first call pays BLAS start-up
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        p @ q.T
        times.append(time.perf_counter() - start)
    return 2.0 * samples * snps * features / median(times) / 1e9


def _median_or_zero(values) -> float:
    values = list(values)
    return median(values) if values else 0.0


def layer_metrics(tracer: Tracer, gemm_rate: float) -> dict[str, float]:
    """Derive every span- and counter-based metric of :data:`LAYER_METRICS`.

    Durations are medians over calls. RNN step metrics count only calls
    made inside ``rnn.train`` and are attributed to that training's cell.
    """
    spans = tracer.spans
    self_s = tracer.self_seconds()
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def durations(name, scale=1.0):
        return _median_or_zero(spans[i].seconds * scale for i in by_name.get(name, ()))

    m: dict[str, float] = {}

    # mf: one mf_fit per impute; its mode and shape apply to its epochs
    epochs = {"full_batch": [], "per_entry": []}
    fit_of_epoch = {}
    for i in by_name.get("mf.mf_epoch", ()):
        fit = tracer.enclosing(i, "mf.mf_fit")
        fit_of_epoch[i] = fit
        epochs[fit.attrs["mode"]].append(i)
    all_epochs = epochs["full_batch"] + epochs["per_entry"]
    m["mf.mf_epoch.ms"] = _median_or_zero(spans[i].seconds * 1e3 for i in all_epochs)
    m["mf.mf_epoch.self_ms"] = _median_or_zero(self_s[i] * 1e3 for i in all_epochs)
    m["mf.mf_gradients.ms"] = durations("mf.mf_gradients", 1e3)
    m["mf.mf_cost.ms"] = durations("mf.mf_cost", 1e3)
    residuals = tracer.counters.get("mf.masked_residual", [0, 0.0])[0]
    m["mf.residuals_per_epoch"] = residuals / len(all_epochs) if all_epochs else 0.0
    m["mf.full_batch.gflops"] = 0.0
    if epochs["full_batch"]:
        fit = fit_of_epoch[epochs["full_batch"][0]].attrs
        flops = 8.0 * fit["samples"] * fit["snps"] * fit["features"]
        m["mf.full_batch.gflops"] = flops / median(spans[i].seconds for i in epochs["full_batch"]) / 1e9
    m["machine.gemm_gflops"] = gemm_rate
    m["mf.per_entry.cells_per_s"] = 0.0
    if epochs["per_entry"]:
        observed = fit_of_epoch[epochs["per_entry"][0]].attrs["observed"]
        m["mf.per_entry.cells_per_s"] = observed / median(spans[i].seconds for i in epochs["per_entry"])

    # rnn: attribute step spans to the cell of the training that runs them
    trains = {c: [spans[i] for i in by_name.get("rnn.train", ()) if spans[i].attrs["cell"] == c]
              for c in CELLS}
    steps = {c: {} for c in CELLS}
    for name in ("rnn.rnn_forward", "rnn.bptt_gradients", "rnn.clip_gradients", "rnn.sgd_step"):
        for i in by_name.get(name, ()):
            train = tracer.enclosing(i, "rnn.train")
            if train is not None:
                steps[train.attrs["cell"]].setdefault(name, []).append(i)
    epoch_ms = {}
    for c in CELLS:
        n_epochs = sum(t.attrs["epochs"] for t in trains[c])
        epoch_ms[c] = _median_or_zero(t.seconds * 1e3 / t.attrs["epochs"]
                                      for t in trains[c] if t.attrs["epochs"])
        own = steps[c]
        clips = own.get("rnn.clip_gradients", [])
        m[f"rnn.epoch.{c}.ms"] = epoch_ms[c]
        m[f"rnn.rnn_forward.{c}.ms"] = _median_or_zero(spans[i].seconds * 1e3
                                                       for i in own.get("rnn.rnn_forward", ()))
        m[f"rnn.backward.{c}.ms"] = _median_or_zero(self_s[i] * 1e3
                                                    for i in own.get("rnn.bptt_gradients", ()))
        m[f"rnn.clip_gradients.{c}.ms"] = _median_or_zero(spans[i].seconds * 1e3 for i in clips)
        m[f"rnn.sgd_step.{c}.ms"] = _median_or_zero(spans[i].seconds * 1e3
                                                    for i in own.get("rnn.sgd_step", ()))
        m[f"rnn.forward_per_epoch.{c}"] = (len(own.get("rnn.rnn_forward", ())) / n_epochs
                                           if n_epochs else 0.0)
        m[f"rnn.clip_rate.{c}"] = (sum(spans[i].attrs["clipped"] for i in clips) / len(clips)
                                   if clips else 0.0)
    m["rnn.lstm_relu_epoch_ratio"] = (epoch_ms["lstm"] / epoch_ms["relu_identity"]
                                      if epoch_ms["lstm"] and epoch_ms["relu_identity"] else 0.0)
    m["rnn.predict.ms"] = durations("rnn.predict", 1e3)
    m["rnn.save_checkpoint.ms"] = durations("rnn.save_checkpoint", 1e3)
    m["rnn.load_checkpoint.ms"] = durations("rnn.load_checkpoint", 1e3)

    # linalg.sigmoid is a counter: compare it with every lstm forward pass
    lstm_fwd = [spans[i] for i in by_name.get("rnn.rnn_forward", ())
                if spans[i].attrs["cell"] == "lstm"]
    lstm_steps = sum(s.attrs["steps"] for s in lstm_fwd)
    lstm_seconds = sum(s.seconds for s in lstm_fwd)
    sig_calls, sig_seconds = tracer.counters.get("linalg.sigmoid", [0, 0.0])
    m["linalg.sigmoid.per_lstm_step"] = sig_calls / lstm_steps if lstm_steps else 0.0
    m["linalg.sigmoid.share_of_lstm_forward"] = sig_seconds / lstm_seconds if lstm_seconds else 0.0

    m["data.parse_genotype_csv.s"] = durations("data.parse_genotype_csv")
    parses = by_name.get("data.parse_genotype_csv", ())
    m["data.parse_genotype_csv.mb_per_s"] = _median_or_zero(
        spans[i].attrs["bytes"] / 1e6 / spans[i].seconds for i in parses)
    m["data.genotype_to_csv.s"] = durations("data.genotype_to_csv")
    m["data.parse_phenotype_csv.s"] = durations("data.parse_phenotype_csv")
    m["data.build_sequences.s"] = durations("data.build_sequences")

    m["pipeline.compare_on_batch.s"] = durations("pipeline.compare_on_batch")
    m["pipeline.evaluate_split.ms"] = durations("pipeline.evaluate_split", 1e3)
    for command in ("impute", "train", "predict", "benchmark"):
        m[f"cli.{command}.s"] = durations(f"cli.{command}")
    cli_self: dict[int, float] = {}
    for i, s in enumerate(spans):
        if s.name.startswith("cli.") and s.parent is None:
            cli_self[s.op] = cli_self.get(s.op, 0.0) + self_s[i]
    m["cli.self_s"] = _median_or_zero(cli_self.values())
    m["tasks.make_task.ms"] = durations("tasks.make_task", 1e3)

    return m
