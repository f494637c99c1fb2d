"""The whole pipeline: Markdown guide in, schematized JSON and a
notebook-style workflow out.

Equivalent to:

    tsgkit --seed 42 train <corpus>
    tsgkit synthesize <spec> ...
    tsgkit automate <guide.md>

    python3 demos/04_automate_end_to_end.py
"""

import os

from tsgkit import evalharness
from tsgkit.config import data_path
from tsgkit.extract import ParserRegistry, RegistryEntry
from tsgkit.identify import fit
from tsgkit.ingest import RawDocument
from tsgkit.pipeline import emit_workflow, schematize, workflow_to_json
from tsgkit.siamese import Hyper
from tsgkit.synthesis import load_spec, synthesize

PARSER_SPECS = (
    "powershell_variable", "powershell_command", "powershell_param_name",
    "powershell_param_value", "torus_variable", "torus_command",
    "torus_param_name", "torus_param_value", "merlin_command",
    "merlin_argument", "kusto_table", "kusto_query", "adf_subscription",
    "adf_resourcegroup", "jarvis_url", "nl_condition", "nl_action",
)

corpus = evalharness.load_corpus(data_path("corpus.jsonl"))
print("training the classifier ...")
vocab, model, prototypes = fit(corpus, Hyper(max_len=32, seed=42, epochs=15), 2000)

print("synthesizing the parser registry ...")
registry = ParserRegistry()
for name in PARSER_SPECS:
    spec = load_spec(os.path.join(data_path("specs"), f"{name}.jsonl"))
    registry.put(
        RegistryEntry(spec.component, spec.constituent_name, synthesize(spec),
                      spec.repeats, spec.preprocess)
    )

with open(data_path("sample_tsg.md"), encoding="utf-8") as fh:
    doc = RawDocument(fh.read(), "sample_tsg.md")

schema = schematize(doc, model, vocab, prototypes, registry)
workflow = emit_workflow(schema)

automatable = sum(e.automatable for e in schema.entries)
print(f"\n{automatable}/{len(schema.entries)} statements automatable\n")
for cell in workflow.cells:
    marker = "code    " if cell.kind == "code" else "markdown"
    first = cell.source.split("\n")[0]
    print(f"[{marker} {cell.language_tag:<10} L{cell.origin_lines[0]:>2}] {first[:56]}")

out = "sample_tsg.workflow.json"
with open(out, "w", encoding="utf-8") as fh:
    fh.write(workflow_to_json(workflow))
print(f"\nworkflow written to {out}")
