"""Per-layer spans recorded from outside tsgkit.

`Tracer.install()` replaces each public function listed in `WRAPS` at the
name its caller looks it up by (for example `tsgkit.pipeline.classify`,
the name `schematize` calls), so spans nest the way the calls do.
`Tracer.uninstall()` puts the originals back, so untraced passes run the
unmodified program.

Spans stay in memory as (name, start, end, parent, run id, failed) and are
reduced at the end to self time per layer: a span's duration minus the
durations of its direct children.  Calls are strictly nested in this
single-threaded benchmark, so the children never overlap.
"""

from __future__ import annotations

import gzip
import importlib
import json
from collections import Counter
from time import perf_counter


def _n_rows(args, kwargs, result):
    return {"rows": len(args[1])}


def _n_statements(args, kwargs, result):
    return {"statements": len(result)}


def _n_missing(args, kwargs, result):
    return {"missing": len(result.missing)}


def _n_tuples(args, kwargs, result):
    return {"tuples": len(result)}


def _n_atoms(args, kwargs, result):
    return {"atoms": len(result)}


# (module whose attribute is replaced, attribute, layer name, counter).
# The layer name is the defining module and function; the module replaced
# is the one whose code looks the name up.
WRAPS = (
    # Called by the benchmark itself, always through the module attribute.
    ("tsgkit.vectorize", "build_vocabulary", "vectorize.build_vocabulary", None),
    ("tsgkit.vectorize", "encode", "vectorize.encode", None),
    ("tsgkit.vectorize", "load_vocabulary", "vectorize.load_vocabulary", None),
    ("tsgkit.siamese", "sample_pairs", "siamese.sample_pairs", None),
    ("tsgkit.siamese", "train", "siamese.train", None),
    ("tsgkit.siamese", "load_model", "siamese.load_model", None),
    ("tsgkit.identify", "compute_prototypes", "identify.compute_prototypes", None),
    ("tsgkit.identify", "load_prototypes", "identify.load_prototypes", None),
    ("tsgkit.extract", "load_registry", "extract.load_registry", None),
    ("tsgkit.pipeline", "schematize", "pipeline.schematize", None),
    ("tsgkit.pipeline", "emit_workflow", "pipeline.emit_workflow", None),
    ("tsgkit.pipeline", "schematized_to_json", "pipeline.schematized_to_json", None),
    ("tsgkit.pipeline", "workflow_to_json", "pipeline.workflow_to_json", None),
    ("tsgkit.synthesis", "synthesize", "synthesis.synthesize", None),
    # Looked up inside the program.
    ("tsgkit.pipeline", "clean_document", "ingest.clean_document", None),
    ("tsgkit.pipeline", "segment", "ingest.segment", _n_statements),
    ("tsgkit.pipeline", "encode", "vectorize.encode", None),
    ("tsgkit.pipeline", "classify", "identify.classify", None),
    ("tsgkit.pipeline", "extract", "extract.extract", _n_missing),
    ("tsgkit.identify", "embed_batch", "siamese.embed_batch", _n_rows),
    ("tsgkit.extract", "extract_repeating", "extract.extract_repeating", _n_tuples),
    ("tsgkit.extract", "eval_program", "dsl.eval_program", None),
    ("tsgkit.extract", "tag_clauses", "clauses.tag_clauses", None),
    # synthesis.load_spec imports tag_clauses inside the function body.
    ("tsgkit.clauses", "tag_clauses", "clauses.tag_clauses", None),
    ("tsgkit.synthesis", "generate_atoms", "synthesis.generate_atoms", _n_atoms),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id, failed)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every name in WRAPS.  A name the program no longer has is
        skipped, and its layer then reads 0 in the per-layer table."""
        for module_name, attr, name, counter in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def layer_totals(self) -> tuple[dict[str, float], Counter]:
        """Self seconds per layer, and calls/failures/counters per layer."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = {}
        counts = Counter(self.counts)
        for i, (name, start, end, _, _, failed) in enumerate(self.spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
            counts[f"{name}.calls"] += 1
            counts[f"{name}.failures"] += failed
        return self_s, counts

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, run_id, failed in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent,
                         "run": run_id, "failed": failed}
                    )
                    + "\n"
                )
