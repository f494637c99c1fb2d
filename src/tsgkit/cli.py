"""Command-line entry point.

Exit codes: 0 success, 2 input error, 3 configuration error,
4 synthesis failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import evalharness, synthesis
from .clauses import Lexicon, load_lexicon
from .config import Config, data_path, load_config
from .dsl import serialize
from .extract import (
    ParserRegistry,
    RegistryEntry,
    extract,
    load_registry,
    save_registry,
)
from .identify import classify, fit, load_prototypes, save_prototypes
from .ingest import RawDocument, Statement, tokenize
from .pipeline import emit_workflow, schematize, schematized_to_json, workflow_to_json
from .siamese import Hyper, load_model, save_model
from .vectorize import encode, load_vocabulary, save_vocabulary

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_SYNTH = 4


# Config keys that a command-line flag of the same name (with dashes) overrides.
OVERRIDES = (
    ("vocab", str), ("model", str), ("prototypes", str), ("registry", str),
    ("lexicon", str), ("max_len", int), ("learning_rate", float),
    ("epochs", int), ("batch_size", int), ("n_pairs", int),
    ("min_freq", int), ("knn_k", int),
)


class ConfigError(Exception):
    pass


def _say(quiet: bool, *parts):
    if not quiet:
        print(*parts)


def _load_cfg(args) -> Config:
    if args.config:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        try:
            cfg = load_config(args.config)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        cfg = Config()
    for key, _ in OVERRIDES:
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(cfg, key, flag)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return cfg


def _require_seed(cfg: Config) -> int:
    if cfg.seed is None:
        raise ConfigError("a seed is required (pass --seed or set it in the config)")
    if cfg.seed < 0:
        raise ConfigError("the seed must be a non-negative integer")
    return cfg.seed


def _lexicon(cfg: Config) -> Lexicon:
    path = cfg.lexicon or data_path("lexicon.txt")
    if not os.path.exists(path):
        raise ConfigError(f"lexicon file not found: {path}")
    return load_lexicon(path)


def _check_fit_counts(cfg: Config) -> None:
    # One positive and one negative pair need n_pairs >= 2.
    if cfg.n_pairs < 2:
        raise ConfigError("n_pairs must be at least 2")
    if cfg.min_freq < 1:
        raise ConfigError("min_freq must be at least 1")


def _hyper(cfg: Config, seed: int) -> Hyper:
    try:
        return Hyper(
            max_len=cfg.max_len,
            seed=seed,
            learning_rate=cfg.learning_rate,
            epochs=cfg.epochs,
            batch_size=cfg.batch_size,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _read_corpus(path: str):
    if not os.path.exists(path):
        raise FileNotFoundError(f"corpus file not found: {path}")
    return evalharness.load_corpus(path)


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    seed = _require_seed(cfg)
    _check_fit_counts(cfg)
    hyper = _hyper(cfg, seed)
    corpus = _read_corpus(args.corpus)
    vocab, model, protos = fit(corpus, hyper, cfg.n_pairs, cfg.min_freq)
    os.makedirs(os.path.dirname(cfg.model) or ".", exist_ok=True)
    save_vocabulary(vocab, cfg.vocab)
    save_model(model, cfg.model)
    save_prototypes(protos, cfg.prototypes)
    _say(args.quiet, "epoch mean loss:")
    for i, loss in enumerate(model.loss_trace, start=1):
        _say(args.quiet, f"  {i:3d}  {loss:.6f}")
    _say(args.quiet, f"wrote {cfg.vocab}, {cfg.model}, {cfg.prototypes}")
    return EXIT_OK


def _load_artifacts(cfg: Config):
    for path in (cfg.vocab, cfg.model, cfg.prototypes):
        if not os.path.exists(path):
            raise ConfigError(f"model artifact not found: {path} (run `tsgkit train`)")
    return load_vocabulary(cfg.vocab), load_model(cfg.model), load_prototypes(cfg.prototypes)


def _statement(text: str) -> Statement:
    return Statement(text, 1, 1, tuple(tokenize(text)))


def cmd_classify(args) -> int:
    cfg = _load_cfg(args)
    vocab, model, protos = _load_artifacts(cfg)
    cls = classify(model, protos, encode(_statement(args.text), vocab, model.hyper.max_len))
    print(cls.label)
    if not args.quiet:
        print(f"  runner-up {cls.runner_up or '-'}, margin {cls.margin:.6f}")
        for label in sorted(cls.per_class, key=lambda c: -cls.per_class[c]):
            print(f"  {label:<18}{cls.per_class[label]:.6f}")
    return EXIT_OK


def cmd_synthesize(args) -> int:
    cfg = _load_cfg(args)
    try:
        bounds = synthesis.Bounds(
            cfg.max_occurrence, cfg.abs_window, cfg.max_atoms, cfg.max_branches
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not os.path.exists(args.spec):
        raise FileNotFoundError(f"spec file not found: {args.spec}")
    spec = synthesis.load_spec(args.spec, _lexicon(cfg))
    program = synthesis.synthesize(spec, bounds)
    print(serialize(program))
    registry = (
        load_registry(cfg.registry) if os.path.exists(cfg.registry) else ParserRegistry()
    )
    registry.put(
        RegistryEntry(spec.component, spec.constituent_name, program, spec.repeats, spec.preprocess)
    )
    os.makedirs(os.path.dirname(cfg.registry) or ".", exist_ok=True)
    save_registry(registry, cfg.registry)
    _say(args.quiet, f"updated {cfg.registry}")
    return EXIT_OK


def cmd_parse(args) -> int:
    cfg = _load_cfg(args)
    if not os.path.exists(cfg.registry):
        raise ConfigError(f"registry not found: {cfg.registry}")
    registry = load_registry(cfg.registry)
    parsed = extract(_statement(args.text), args.component, registry, _lexicon(cfg))
    print(
        json.dumps(
            {"component": parsed.component, "constituents": parsed.constituents,
             "missing": sorted(parsed.missing)},
            indent=2,
        )
    )
    return EXIT_OK


def cmd_automate(args) -> int:
    cfg = _load_cfg(args)
    if not os.path.exists(args.tsg):
        raise FileNotFoundError(f"TSG file not found: {args.tsg}")
    vocab, model, protos = _load_artifacts(cfg)
    if not os.path.exists(cfg.registry):
        raise ConfigError(f"registry not found: {cfg.registry}")
    registry = load_registry(cfg.registry)
    with open(args.tsg, encoding="utf-8") as fh:
        try:
            doc = RawDocument(fh.read(), os.path.basename(args.tsg))
        except UnicodeDecodeError:
            raise ValueError(f"{args.tsg}: not UTF-8 text") from None
    schema = schematize(doc, model, vocab, protos, registry, _lexicon(cfg))
    workflow = emit_workflow(schema)
    stem = os.path.splitext(args.tsg)[0]
    out_dir = args.out_dir or os.path.dirname(args.tsg) or "."
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, os.path.basename(stem))
    schema_path, workflow_path = base + ".schema.json", base + ".workflow.json"
    with open(schema_path, "w", encoding="utf-8") as fh:
        fh.write(schematized_to_json(schema))
    with open(workflow_path, "w", encoding="utf-8") as fh:
        fh.write(workflow_to_json(workflow))
    counts: dict[str, int] = {}
    automatable = 0
    for entry in schema.entries:
        counts[entry.component] = counts.get(entry.component, 0) + 1
        automatable += entry.automatable
    _say(args.quiet, f"wrote {schema_path} and {workflow_path}")
    for component in sorted(counts):
        _say(args.quiet, f"  {component:<18}{counts[component]}")
    total = len(schema.entries)
    pct = 100.0 * automatable / total if total else 0.0
    _say(args.quiet, f"automatable: {automatable}/{total} ({pct:.1f}%)")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    seed = _require_seed(cfg)
    if cfg.knn_k < 1:
        raise ConfigError("knn_k must be at least 1")
    if args.k < 2:
        raise ConfigError("k must be at least 2")
    _check_fit_counts(cfg)
    hyper = _hyper(cfg, seed)
    corpus = _read_corpus(args.corpus)
    results = evalharness.run_comparison(
        corpus, args.k, hyper, cfg.n_pairs, cfg.min_freq, cfg.knn_k
    )
    for name, metrics in results.items():
        print(evalharness.format_metrics_table(name, metrics))
        print()
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(evalharness.metrics_to_json(results))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tsgkit",
        description="Classify troubleshooting-guide statements, synthesize "
        "constituent parsers, and emit executable workflows.",
    )
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--seed", type=int, help="random seed (required for train/eval)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    for key, kind in OVERRIDES:
        parser.add_argument(f"--{key.replace('_', '-')}", type=kind, dest=key)

    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("train", help="train the classifier on a labeled corpus")
    p.add_argument("corpus")
    p.set_defaults(func=cmd_train)
    p = sub.add_parser("classify", help="classify one statement")
    p.add_argument("text")
    p.set_defaults(func=cmd_classify)
    p = sub.add_parser("synthesize", help="synthesize a parser from a spec file")
    p.add_argument("spec")
    p.set_defaults(func=cmd_synthesize)
    p = sub.add_parser("parse", help="extract constituents from one statement")
    p.add_argument("text")
    p.add_argument("--component", required=True)
    p.set_defaults(func=cmd_parse)
    p = sub.add_parser("automate", help="schematize a TSG and emit its workflow")
    p.add_argument("tsg")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_automate)
    p = sub.add_parser("eval", help="cross-validated comparison against the baseline")
    p.add_argument("corpus")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_eval)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except synthesis.SynthesisFailure as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        for inp, out in exc.unmet_pairs:
            print(f"  unmet: {inp!r} -> {out!r}", file=sys.stderr)
        return EXIT_SYNTH
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
