"""Stratified k-fold evaluation, per-class metrics, parsing bookkeeping."""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from .config import json_lines, numbered_lines
from .extract import ParsedComponent, ParserRegistry, extract
from .identify import classify_batch, fit, knn_bow_classify
from .ingest import Statement, tokenize
from .siamese import Hyper
from .synthesis import ExampleSpec
from .vectorize import bow, build_vocabulary, encode


def load_corpus(path: str) -> list[tuple[Statement, str]]:
    """Line-delimited {"text", "label"} records; errors name `path:line`."""
    examples: list[tuple[Statement, str]] = []
    with numbered_lines(path) as lines:
        for i, rec in json_lines(lines):
            if not (
                isinstance(rec, dict)
                and all(isinstance(rec.get(k), str) for k in ("text", "label"))
            ):
                raise ValueError("expected an object with string text and label")
            text = rec["text"]
            examples.append((Statement(text, i, i, tuple(tokenize(text))), rec["label"]))
    return examples


def cap_classes(
    examples: list[tuple[Statement, str]], caps: dict[str, int], seed: int
) -> list[tuple[Statement, str]]:
    rng = np.random.default_rng(seed)
    keep: set[int] = set()
    by_class: dict[str, list[int]] = {}
    for i, (_, label) in enumerate(examples):
        by_class.setdefault(label, []).append(i)
    for label, idxs in sorted(by_class.items()):
        cap = caps.get(label)
        if cap is not None and len(idxs) > cap:
            chosen = rng.choice(len(idxs), size=cap, replace=False)
            keep.update(idxs[c] for c in sorted(chosen))
        else:
            keep.update(idxs)
    return [ex for i, ex in enumerate(examples) if i in keep]


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class Metrics:
    """Fields in the order `metrics_to_json` writes them; per_class in label order."""

    accuracy: float
    macro_f1: float
    per_class: dict[str, ClassMetrics]


def metrics_from_predictions(pairs: list[tuple[str, str]]) -> Metrics:
    """pairs of (true label, predicted label), pooled."""
    labels = sorted({t for t, _ in pairs} | {p for _, p in pairs})
    per_class: dict[str, ClassMetrics] = {}
    correct = sum(1 for t, p in pairs if t == p)
    f1s = []
    for label in labels:
        tp = sum(1 for t, p in pairs if t == label and p == label)
        fp = sum(1 for t, p in pairs if t != label and p == label)
        fn = sum(1 for t, p in pairs if t == label and p != label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        support = tp + fn
        if support:
            per_class[label] = ClassMetrics(precision, recall, f1, support)
            f1s.append(f1)
    return Metrics(correct / len(pairs), sum(f1s) / len(f1s) if f1s else 0.0, per_class)


def stratified_folds(
    corpus: list[tuple[Statement, str]], k: int, seed: int
) -> list[list[int]]:
    """k disjoint test folds; per-class counts differ by at most one."""
    if k < 2:
        raise ValueError("k must be >= 2")
    by_class: dict[str, list[int]] = {}
    for i, (_, label) in enumerate(corpus):
        by_class.setdefault(label, []).append(i)
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for label in sorted(by_class):
        idxs = by_class[label]
        if len(idxs) < k:
            raise ValueError(f"class {label!r} has {len(idxs)} < k={k} examples")
        order = rng.permutation(len(idxs))
        for slot, which in enumerate(order):
            folds[slot % k].append(idxs[which])
    return [sorted(f) for f in folds]


def kfold_eval(
    corpus: list[tuple[Statement, str]],
    k: int,
    seed: int,
    predict: Callable[[list[tuple[Statement, str]], int, list[Statement]], list[str]],
) -> Metrics:
    """Train on k-1 folds, label the held-out fold, pool all predictions.

    `predict(train_examples, fold_seed, statements)` fits on the training
    folds and returns one label per held-out statement; fold i gets the
    seed `seed + i`.
    """
    folds = stratified_folds(corpus, k, seed)
    predictions: list[tuple[str, str]] = []
    for fold_index, test_idx in enumerate(folds):
        test_set = set(test_idx)
        train_examples = [ex for i, ex in enumerate(corpus) if i not in test_set]
        predicted = predict(train_examples, seed + fold_index, [corpus[i][0] for i in test_idx])
        if len(predicted) != len(test_idx):
            raise ValueError(
                f"predict gave {len(predicted)} labels for {len(test_idx)} statements"
            )
        predictions += [(corpus[i][1], label) for i, label in zip(test_idx, predicted)]
    return metrics_from_predictions(predictions)


def _siamese_labels(hyper, n_pairs, min_freq, train_examples, fold_seed, statements):
    fold_hyper = replace(hyper, seed=fold_seed)
    vocab, model, protos = fit(train_examples, fold_hyper, n_pairs, min_freq)
    xs = [encode(s, vocab, hyper.max_len) for s in statements]
    return [c.label for c in classify_batch(model, protos, xs)]


def _knn_bow_labels(min_freq, knn_k, train_examples, fold_seed, statements):
    vocab = build_vocabulary([s for s, _ in train_examples], min_freq)
    rows = [(bow(s, vocab), label) for s, label in train_examples]
    return [knn_bow_classify(rows, bow(s, vocab), knn_k) for s in statements]


def run_comparison(corpus, k: int, hyper: Hyper, n_pairs: int, min_freq: int, knn_k: int):
    """SiameseNet vs KNN bag-of-words on identical stratified folds, drawn
    with `hyper.seed`; each siamese fold fits `hyper` at its fold's seed."""
    siamese = functools.partial(_siamese_labels, hyper, n_pairs, min_freq)
    knn_bow = functools.partial(_knn_bow_labels, min_freq, knn_k)
    return {
        "siamese": kfold_eval(corpus, k, hyper.seed, siamese),
        "knn_bow": kfold_eval(corpus, k, hyper.seed, knn_bow),
    }


def format_metrics_table(name: str, m: Metrics) -> str:
    lines = [
        f"{name}",
        f"{'class':<18}{'precision':>10}{'recall':>10}{'f1':>10}{'support':>10}",
    ]
    for label, cm in sorted(m.per_class.items()):
        lines.append(
            f"{label:<18}{cm.precision:>10.3f}{cm.recall:>10.3f}"
            f"{cm.f1:>10.3f}{cm.support:>10}"
        )
    lines.append(f"{'macro f1':<18}{m.macro_f1:>10.3f}")
    lines.append(f"{'accuracy':<18}{m.accuracy:>10.3f}")
    return "\n".join(lines)


def metrics_to_json(results: dict[str, Metrics]) -> str:
    return json.dumps({name: asdict(m) for name, m in results.items()}, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Parsing precision/recall


@dataclass
class ParsingScore:
    precision: float
    recall: float
    extracted: int
    correct: int
    expected: int
    empty_flag: bool = False


def _flatten(parsed: ParsedComponent) -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = []
    for name in sorted(parsed.constituents):
        value = parsed.constituents[name]
        if isinstance(value, list):
            items.extend(((name, i), v) for i, v in enumerate(value))
        else:
            items.append((name, value))
    return items


def parsing_report(
    specs: list[ExampleSpec],
    registry: ParserRegistry,
    testset: list[tuple[Statement, str, ParsedComponent]],
) -> dict[str, ParsingScore]:
    """Constituent-level precision/recall per component plus 'overall'."""
    spec_inputs = {inp for spec in specs for inp, _ in spec.pairs}
    for stmt, _, _ in testset:
        if stmt.raw in spec_inputs:
            raise ValueError(f"test statement also appears in a synthesis spec: {stmt.raw!r}")
    tallies: dict[str, list[int]] = {}
    for stmt, component, expected in testset:
        got = extract(stmt, component, registry)
        got_items = dict(_flatten(got))
        want_items = dict(_flatten(expected))
        extracted = len(got_items)
        correct = sum(
            1 for key, val in got_items.items() if want_items.get(key) == val
        )
        t = tallies.setdefault(component, [0, 0, 0])
        t[0] += extracted
        t[1] += correct
        t[2] += len(want_items)
    report: dict[str, ParsingScore] = {}
    overall = [0, 0, 0]
    for component, (extracted, correct, expected) in sorted(tallies.items()):
        for i, v in enumerate((extracted, correct, expected)):
            overall[i] += v
        report[component] = ParsingScore(
            precision=correct / extracted if extracted else 0.0,
            recall=correct / expected if expected else 0.0,
            extracted=extracted,
            correct=correct,
            expected=expected,
            empty_flag=extracted == 0,
        )
    report["overall"] = ParsingScore(
        precision=overall[1] / overall[0] if overall[0] else 0.0,
        recall=overall[1] / overall[2] if overall[2] else 0.0,
        extracted=overall[0],
        correct=overall[1],
        expected=overall[2],
        empty_flag=overall[0] == 0,
    )
    return report
