import collections

import pytest

from tsgkit.evalharness import (
    cap_classes,
    kfold_eval,
    load_corpus,
    metrics_from_predictions,
    parsing_report,
    stratified_folds,
)
from tsgkit.extract import ParsedComponent, ParserRegistry, RegistryEntry
from tsgkit.dsl import parse as parse_program
from tsgkit.ingest import Statement
from tsgkit.synthesis import ExampleSpec


def stmt(text, label=None):
    return Statement(text, 1, 1, (text,))


def tiny_corpus(per_class=6, classes=("a", "b", "c")):
    examples = []
    for c in classes:
        for i in range(per_class):
            examples.append((stmt(f"{c}{i}"), c))
    return examples


# --- folds -------------------------------------------------------------------


def test_folds_partition_every_example_once():
    corpus = tiny_corpus()
    folds = stratified_folds(corpus, 3, seed=0)
    seen = [i for fold in folds for i in fold]
    assert sorted(seen) == list(range(len(corpus)))


def test_folds_keep_class_proportions():
    corpus = tiny_corpus(per_class=7)
    folds = stratified_folds(corpus, 3, seed=1)
    for fold in folds:
        counts = collections.Counter(corpus[i][1] for i in fold)
        assert max(counts.values()) - min(counts.values()) <= 1


def test_folds_deterministic():
    corpus = tiny_corpus()
    assert stratified_folds(corpus, 3, 5) == stratified_folds(corpus, 3, 5)


def test_class_too_small():
    corpus = tiny_corpus(per_class=2)
    with pytest.raises(ValueError, match="^class 'a' has 2 < k=3 examples$"):
        stratified_folds(corpus, 3, seed=0)


# --- kfold metrics -----------------------------------------------------------


def test_perfect_classifier_scores_one():
    corpus = tiny_corpus()
    truth = {s.raw: label for s, label in corpus}
    metrics = kfold_eval(corpus, 3, 0, lambda train, seed, stmts: [truth[s.raw] for s in stmts])
    assert metrics.accuracy == 1.0
    assert all(cm.f1 == 1.0 for cm in metrics.per_class.values())


def test_constant_classifier_accuracy_is_class_share():
    corpus = tiny_corpus(per_class=6, classes=("a", "b", "c"))
    metrics = kfold_eval(corpus, 3, 0, lambda train, seed, stmts: ["a"] * len(stmts))
    assert metrics.accuracy == pytest.approx(1 / 3)
    assert metrics.per_class["a"].recall == 1.0


def test_classifier_sees_each_held_out_fold_once():
    corpus = tiny_corpus(per_class=6, classes=("a", "b", "c"))
    batches, seeds = [], []

    def predict(train_examples, fold_seed, stmts):
        batches.append([s.raw for s in stmts])
        seeds.append(fold_seed)
        seen = {s.raw: label for s, label in train_examples}
        return [seen.get(s.raw, "a") for s in stmts]

    kfold_eval(corpus, 3, 0, predict)
    folds = stratified_folds(corpus, 3, 0)
    assert batches == [[corpus[i][0].raw for i in fold] for fold in folds]
    assert seeds == [0, 1, 2]


def test_classifier_must_label_every_statement():
    corpus = tiny_corpus(per_class=6, classes=("a", "b", "c"))
    with pytest.raises(ValueError, match="labels"):
        kfold_eval(corpus, 3, 0, lambda train, seed, stmts: ["a"])


def test_metrics_match_confusion_matrix_oracle():
    pairs = [
        ("a", "a"), ("a", "b"), ("a", "a"),
        ("b", "b"), ("b", "b"), ("b", "a"),
        ("c", "c"), ("c", "a"), ("c", "c"),
    ]
    metrics = metrics_from_predictions(pairs)
    # Independent confusion-matrix computation.
    labels = sorted({t for t, _ in pairs})
    matrix = {(t, p): 0 for t in labels for p in labels}
    for t, p in pairs:
        matrix[(t, p)] += 1
    for label in labels:
        tp = matrix[(label, label)]
        fp = sum(matrix[(t, label)] for t in labels if t != label)
        fn = sum(matrix[(label, p)] for p in labels if p != label)
        want_p = tp / (tp + fp) if tp + fp else 0.0
        want_r = tp / (tp + fn) if tp + fn else 0.0
        got = metrics.per_class[label]
        assert got.precision == pytest.approx(want_p)
        assert got.recall == pytest.approx(want_r)
        assert got.support == tp + fn
    assert metrics.accuracy == pytest.approx(
        sum(matrix[(l, l)] for l in labels) / len(pairs)
    )
    assert sum(cm.support for cm in metrics.per_class.values()) == len(pairs)


def test_f1_zero_when_precision_and_recall_zero():
    metrics = metrics_from_predictions([("a", "b"), ("b", "a")])
    assert metrics.per_class["a"].f1 == 0.0


# --- capping -----------------------------------------------------------------


def test_caps_subsample_deterministically():
    examples = [(stmt(f"x{i}"), "big") for i in range(20)]
    examples += [(stmt(f"y{i}"), "small") for i in range(3)]
    capped = cap_classes(examples, {"big": 5}, seed=9)
    counts = collections.Counter(label for _, label in capped)
    assert counts == {"big": 5, "small": 3}
    again = cap_classes(examples, {"big": 5}, seed=9)
    assert [s.raw for s, _ in capped] == [s.raw for s, _ in again]


def test_corpus_file_round_trip(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"text": "a b", "label": "x"}\n{"text": "c", "label": "y"}\n')
    corpus = load_corpus(str(path))
    assert [(s.raw, label) for s, label in corpus] == [("a b", "x"), ("c", "y")]


# --- parsing report ----------------------------------------------------------


def fixed_registry():
    reg = ParserRegistry()
    reg.put(
        RegistryEntry(
            "demo", "word",
            parse_program("sub(pos(StartAnchor,Alpha,-1),pos(Alpha,Whitespace,1))"),
            False, (),
        )
    )
    return reg


def test_perfect_registry_scores_one():
    testset = [(stmt("alpha beta"), "demo", ParsedComponent("demo", {"word": "alpha"}))]
    report = parsing_report([], fixed_registry(), testset)
    assert report["demo"].precision == 1.0
    assert report["demo"].recall == 1.0
    assert report["overall"].precision == 1.0


def test_empty_extraction_reports_zero_with_flag():
    reg = ParserRegistry()
    reg.put(RegistryEntry("demo", "word", parse_program("sub(pos(Dot,eps,1),pos(eps,Dot,2))"), False, ()))
    testset = [(stmt("no dots"), "demo", ParsedComponent("demo", {"word": "no"}))]
    report = parsing_report([], reg, testset)
    assert report["demo"].precision == 0.0
    assert report["demo"].recall == 0.0
    assert report["demo"].empty_flag


def test_overlap_between_spec_and_testset_rejected():
    spec = ExampleSpec("demo", "word", [("alpha beta", "alpha")])
    testset = [(stmt("alpha beta"), "demo", ParsedComponent("demo", {"word": "alpha"}))]
    with pytest.raises(
        ValueError, match="^test statement also appears in a synthesis spec: 'alpha beta'$"
    ):
        parsing_report([spec], fixed_registry(), testset)


def test_mixed_report_counts():
    testset = [
        (stmt("alpha beta"), "demo", ParsedComponent("demo", {"word": "alpha"})),
        (stmt("gamma d"), "demo", ParsedComponent("demo", {"word": "WRONG"})),
    ]
    report = parsing_report([], fixed_registry(), testset)
    assert report["demo"].extracted == 2
    assert report["demo"].correct == 1
    assert report["demo"].precision == 0.5
    assert report["demo"].recall == 0.5
