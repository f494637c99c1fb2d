"""The benchmark's three workloads: seeded inputs, set-up, passes, checks.

Each workload is a closed loop: one caller, the next call starting after
the previous one returns.  A workload makes its inputs from the seed when
it is built (untimed), then offers

- `setup()`: the work done once before the loop, timed as `setup_s`;
- `run_pass()`: one pass over its inputs, one timed operation at a time;
- `finish()`: checks and quality figures after the timed loop, returned as
  (accuracy, checks made, checks failed, extra per-layer figures).

Every tsgkit function is called through its module attribute, so that the
tracer's wrappers (see tracing.py) see the calls.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from tsgkit import clauses, corpusgen, dsl, identify, pipeline, siamese, synthesis, vectorize
from tsgkit.config import data_path
from tsgkit.ingest import RawDocument, Statement, clean_document, tokenize

# The package exports the function `extract`, which hides the module.
extract = importlib.import_module("tsgkit.extract")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "tests", "goldens")

# Fit settings shared by `train` and the preparation step of `automate`.
PER_CLASS = 40
N_PAIRS = 2000
MAX_LEN = 32
EPOCHS = 3

# The bundled specs the end-to-end registry is built from, in extraction order.
PIPELINE_SPECS = (
    "powershell_variable", "powershell_command", "powershell_param_name",
    "powershell_param_value", "torus_variable", "torus_command", "torus_param_name",
    "torus_param_value", "merlin_command", "merlin_argument", "kusto_table",
    "kusto_query", "adf_subscription", "adf_resourcegroup", "jarvis_url",
    "nl_condition", "nl_action",
)

GUIDE_LENGTHS = range(4, 21)  # statements per guide
GUIDES_PER_LENGTH = 12  # 17 lengths x 12 = 204 guides per pass

SWEEP_SIZES = range(3, 11)  # examples per sweep spec
SWEEP_HELDOUT = 4  # held-out examples per format per sweep spec

# One statement shape per Kusto format; the output is the table name.
KUSTO_FORMATS = (
    ("bare", re.compile(r'^(\w+) \| where \w+ == "\w+" \| count$')),
    ("cluster", re.compile(r"^cluster\('\w+'\)\.database\('\w+'\)\.(\w+) \| sort by \w+ desc$")),
    ("let", re.compile(r"^let \w+ = (\w+) \| where \w+ > \d+$")),
)


def derived_seed(seed: int, stream: int) -> int:
    """Independent seed for one input stream of a workload."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def statement(text: str) -> Statement:
    return Statement(text, 1, 1, tuple(tokenize(text)))


def fit(examples, seed: int):
    """The full fit sequence, as `tsgkit train` runs it."""
    vocab = vectorize.build_vocabulary([s for s, _ in examples], 1)
    encoded = [(vectorize.encode(s, vocab, MAX_LEN), label) for s, label in examples]
    pairs = siamese.sample_pairs(encoded, seed, N_PAIRS)
    hyper = siamese.Hyper(max_len=MAX_LEN, seed=seed, epochs=EPOCHS)
    model = siamese.train(pairs, hyper, vocab.size)
    support: dict[str, list] = {}
    for x, label in encoded:
        support.setdefault(label, []).append(x)
    return vocab, model, identify.compute_prototypes(model, support)


def save_fit(vocab, model, protos, workdir: str) -> dict[str, str]:
    paths = {name: os.path.join(workdir, name) for name in ("vocab.tsv", "model.bin", "protos.tsv")}
    vectorize.save_vocabulary(vocab, paths["vocab.tsv"])
    siamese.save_model(model, paths["model.bin"])
    identify.save_prototypes(protos, paths["protos.tsv"])
    return paths


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def load_lexicon():
    return clauses.load_lexicon(data_path("lexicon.txt"))


@dataclass
class PassResult:
    op_seconds: list[float] = field(default_factory=list)
    work: int = 0
    failures: int = 0


class Workload:
    name = ""
    work_unit = ""  # what work_per_s counts
    op_unit = ""  # what one timed operation is

    def __init__(self, seed: int, workdir: str):
        self.seed, self.workdir = seed, workdir
        self.run_id = 0  # tracer run id: index of the current operation

    def _next_op(self, tracer) -> None:
        self.run_id += 1
        if tracer is not None:
            tracer.run_id = self.run_id

    def _failed(self, what: str, exc: BaseException | None = None) -> int:
        detail = f": {type(exc).__name__}: {exc}" if exc is not None else ""
        print(f"FAILED {self.name} {what}{detail}", file=sys.stderr, flush=True)
        return 1


class Train(Workload):
    """Repeated full fits with one seed; each fit is one pass."""

    name = "train"
    work_unit = "pair-epochs"
    op_unit = "fit"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        seen = {text for text, _ in corpusgen.generate_corpus(seed, PER_CLASS)}
        self.heldout = [
            (statement(text), label)
            for text, label in corpusgen.generate_corpus(derived_seed(seed, 1), PER_CLASS * 2)
            if text not in seen
        ]
        self.reference = None
        self.last = None

    def setup(self):
        self.examples = [
            (statement(text), label) for text, label in corpusgen.generate_corpus(self.seed, PER_CLASS)
        ]

    def run_pass(self, tracer=None) -> PassResult:
        result = PassResult()
        self._next_op(tracer)
        t0 = perf_counter()
        try:
            vocab, model, protos = fit(self.examples, self.seed)
        except Exception as exc:  # keep measuring; the failure is counted
            result.failures += self._failed("fit", exc)
            return result
        result.op_seconds.append(perf_counter() - t0)
        result.work = N_PAIRS * EPOCHS
        self.last = (vocab, model, protos)
        digest = file_digest(save_fit(vocab, model, protos, self.workdir).values())
        if self.reference is None:
            self.reference = digest
        if digest != self.reference:
            result.failures += self._failed("fit: artifacts differ from the first fit with this seed")
        if not all(math.isfinite(loss) for loss in model.loss_trace):
            result.failures += self._failed(f"fit: non-finite loss {model.loss_trace}")
        return result

    def finish(self):
        vocab, model, protos = self.last
        right = sum(
            identify.classify(model, protos, vectorize.encode(s, vocab, MAX_LEN)).label == label
            for s, label in self.heldout
        )
        return right / len(self.heldout), 0, 0, {}


def _write_guide(rows, index: int) -> tuple[str, list[tuple[int, str]]]:
    """Markdown text, plus (first line, generator label) of each statement.

    After the heading come a table and an image, which cleaning blanks;
    Kusto pipes go on continuation lines, which segmentation merges.
    """
    lines: list[str] = []
    expected: list[tuple[int, str]] = []
    for k, (text, label) in enumerate(rows):
        expected.append((len(lines) + 1, label))
        if label == "kusto" and " | " in text:
            head, *rest = text.split(" | ")
            lines += [head] + ["| " + part for part in rest]
        else:
            lines.append(text)
        lines.append("")
        if k == 0:
            lines += ["| Step | Owner |", "| --- | --- |", "| 1 | on-call |", ""]
            lines += [f"![flow](images/guide-{index}.png)", ""]
    return "\n".join(lines), expected


class Automate(Workload):
    """Schematize and emit a set of generated guides with a saved model."""

    name = "automate"
    work_unit = "statements"
    op_unit = "guide"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # Preparation, untimed: fit with the train settings, synthesize the
        # end-to-end registry, and save all of it.
        examples = [(statement(t), label) for t, label in corpusgen.generate_corpus(seed, PER_CLASS)]
        self.paths = save_fit(*fit(examples, seed), workdir)
        lexicon = load_lexicon()
        registry = extract.ParserRegistry()
        for name in PIPELINE_SPECS:
            spec = synthesis.load_spec(os.path.join(data_path("specs"), name + ".jsonl"), lexicon)
            registry.put(
                extract.RegistryEntry(
                    spec.component, spec.constituent_name, synthesis.synthesize(spec),
                    spec.repeats, spec.preprocess,
                )
            )
        self.paths["registry.txt"] = os.path.join(workdir, "registry.txt")
        extract.save_registry(registry, self.paths["registry.txt"])

        # Guides from a corpus drawn with another seed: a heading, then
        # statements; every length in GUIDE_LENGTHS equally often.
        pool = corpusgen.generate_corpus(derived_seed(seed, 2), 60)
        headings = [row for row in pool if row[0].startswith("#")]
        rng = np.random.default_rng(derived_seed(seed, 3))
        lengths = [n for n in GUIDE_LENGTHS for _ in range(GUIDES_PER_LENGTH)]
        rng.shuffle(lengths)
        self.guides = []
        for i, n in enumerate(lengths):
            rows = [headings[rng.integers(len(headings))]]
            rows += [pool[j] for j in rng.integers(len(pool), size=n - 1)]
            text, expected = _write_guide(rows, i)
            self.guides.append((RawDocument(text, f"guide-{i}.md"), expected))
        self.labels_right = self.labels_total = self.automatable = 0

    def setup(self):
        p = self.paths
        self.vocab = vectorize.load_vocabulary(p["vocab.tsv"])
        self.model = siamese.load_model(p["model.bin"])
        self.protos = identify.load_prototypes(p["protos.tsv"])
        self.registry = extract.load_registry(p["registry.txt"])
        self.lexicon = load_lexicon()

    def _automate(self, doc):
        """What `tsgkit automate` does after loading: both documents, serialized."""
        schema = pipeline.schematize(doc, self.model, self.vocab, self.protos, self.registry, self.lexicon)
        workflow = pipeline.emit_workflow(schema)
        pipeline.schematized_to_json(schema)
        return schema, workflow, pipeline.workflow_to_json(workflow)

    def run_pass(self, tracer=None) -> PassResult:
        result = PassResult()
        right = total = automatable = 0
        for doc, expected in self.guides:
            self._next_op(tracer)
            t0 = perf_counter()
            try:
                schema, workflow, _ = self._automate(doc)
            except Exception as exc:  # keep measuring; the failure is counted
                result.failures += self._failed(doc.source_name, exc)
                continue
            result.op_seconds.append(perf_counter() - t0)
            result.work += len(schema.entries)
            starts = [e.line_start for e in schema.entries]
            if starts != [line for line, _ in expected] or not _covers_once(doc, workflow):
                result.failures += self._failed(f"{doc.source_name}: statements and cells disagree")
                continue
            right += sum(e.component == label for e, (_, label) in zip(schema.entries, expected))
            total += len(expected)
            automatable += sum(e.automatable for e in schema.entries)
        self.labels_right, self.labels_total, self.automatable = right, total, automatable
        return result

    def finish(self):
        with open(data_path("sample_tsg.md"), encoding="utf-8") as fh:
            doc = RawDocument(fh.read(), "sample_tsg.md")
        with open(os.path.join(GOLDEN_DIR, "sample_tsg.workflow.json"), encoding="utf-8") as fh:
            golden = fh.read()
        failed = 0
        _, _, workflow_json = self._automate(doc)
        if workflow_json != golden:
            failed = self._failed("sample_tsg.md: workflow differs from tests/goldens/sample_tsg.workflow.json")
        extra = {"pipeline.automatable_frac": self.automatable / max(self.labels_total, 1)}
        return self.labels_right / max(self.labels_total, 1), 1, failed, extra


def _covers_once(doc, workflow) -> bool:
    """Every nonblank line after cleaning lies in exactly one cell."""
    covered: list[int] = []
    for cell in workflow.cells:
        lo, hi = cell.origin_lines
        covered += range(lo, hi + 1)
    nonblank = {
        n for n, line in enumerate(clean_document(doc).text.split("\n"), start=1) if line.strip()
    }
    return len(covered) == len(set(covered)) and nonblank <= set(covered)


class Synthesize(Workload):
    """Synthesize every bundled spec plus a seeded sweep of Kusto-table specs."""

    name = "synthesize"
    work_unit = "specs"
    op_unit = "spec"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        with open(os.path.join(GOLDEN_DIR, "kusto_table_program.txt"), encoding="utf-8") as fh:
            self.golden = fh.read().strip()
        spec_dir = data_path("specs")
        self.spec_paths = [os.path.join(spec_dir, f) for f in sorted(os.listdir(spec_dir)) if f.endswith(".jsonl")]

        # Sweep: formats in a fixed round-robin order (the subset search's
        # work depends on it); tables, columns and values come from the seed.
        by_format: dict[str, list[tuple[str, str]]] = {name: [] for name, _ in KUSTO_FORMATS}
        for text, label in corpusgen.generate_corpus(derived_seed(seed, 4), 400):
            for name, pattern in KUSTO_FORMATS:
                m = pattern.match(text) if label == "kusto" else None
                if m:
                    by_format[name].append((text, m.group(1)))
        rng = np.random.default_rng(derived_seed(seed, 5))
        for rows in by_format.values():
            rng.shuffle(rows)
        self.heldout: dict[str, list[tuple[str, str]]] = {}
        for n in SWEEP_SIZES:
            formats = [KUSTO_FORMATS[(i + n) % 3][0] for i in range(n)]
            pairs = [by_format[f].pop() for f in formats]
            heldout = [by_format[f].pop() for f, _ in KUSTO_FORMATS for _ in range(SWEEP_HELDOUT)]
            name = f"table_n{n}"
            path = os.path.join(workdir, f"kusto_{name}.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps({"component": "kusto", "constituent": name}) + "\n")
                for text, out in pairs:
                    fh.write(json.dumps({"input": text, "output": out}) + "\n")
            self.spec_paths.append(path)
            self.heldout[f"kusto.{name}"] = heldout
        self.programs = {}

    def setup(self):
        lexicon = load_lexicon()
        self.specs = [synthesis.load_spec(path, lexicon) for path in self.spec_paths]

    def run_pass(self, tracer=None) -> PassResult:
        result = PassResult()
        for spec in self.specs:
            self._next_op(tracer)
            what = f"{spec.component}.{spec.constituent_name}"
            t0 = perf_counter()
            try:
                program = synthesis.synthesize(spec)
            except Exception as exc:  # keep measuring; the failure is counted
                result.failures += self._failed(what, exc)
                continue
            result.op_seconds.append(perf_counter() - t0)
            result.work += 1
            self.programs[what] = program
            text = dsl.serialize(program)
            if not _reproduces(dsl.parse(text), spec):
                result.failures += self._failed(f"{what}: program does not reproduce its spec")
            elif what == "kusto.table" and text != self.golden:
                result.failures += self._failed(f"{what}: differs from tests/goldens/kusto_table_program.txt")
        return result

    def finish(self):
        right = total = 0
        for name, rows in self.heldout.items():
            program = self.programs[name]
            for text, out in rows:
                total += 1
                try:
                    right += program.eval(text) == out
                except dsl.EvalFailure:
                    pass
        return right / total, 0, 0, {}


def _reproduces(program, spec) -> bool:
    """Re-evaluate a re-parsed program on every pair and negative."""
    for inp, out in spec.pairs:
        try:
            if program.eval(inp) != out:
                return False
        except dsl.EvalFailure:
            return False
    for neg in spec.negatives:
        try:
            program.eval(neg)
            return False
        except dsl.EvalFailure:
            pass
    return True


WORKLOADS = {cls.name: cls for cls in (Train, Automate, Synthesize)}
