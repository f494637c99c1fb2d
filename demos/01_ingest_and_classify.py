"""Walk a Markdown troubleshooting guide through cleaning, segmentation,
and component-type classification.

Run from the repository root:

    python3 demos/01_ingest_and_classify.py
"""

from tsgkit import evalharness
from tsgkit.config import data_path
from tsgkit.identify import classify_batch, fit
from tsgkit.ingest import RawDocument, clean_document, segment
from tsgkit.siamese import Hyper
from tsgkit.vectorize import encode

# --- ingest ------------------------------------------------------------------
# Cleaning blanks image embeds and table rows in place, so the line
# numbers of everything that survives still point into the original file.

with open(data_path("sample_tsg.md"), encoding="utf-8") as fh:
    doc = RawDocument(fh.read(), "sample_tsg.md")

statements = segment(clean_document(doc))
print(f"{len(statements)} statements segmented from {doc.source_name}")
for s in statements[:4]:
    print(f"  L{s.line_start}-{s.line_end}: {s.raw[:60]}")
print()

# --- train the twin network on the bundled corpus ----------------------------
# The meta-task is pairwise: "do these two statements share a component
# type?"  Classification afterwards is nearest-prototype search against
# each class's mean embedding.

corpus = evalharness.load_corpus(data_path("corpus.jsonl"))
hyper = Hyper(max_len=32, seed=42, epochs=15)
n_pairs = 2000
print(f"training on {n_pairs} statement pairs ...")
vocab, model, prototypes = fit(corpus, hyper, n_pairs)
print(f"epoch mean loss: {model.loss_trace[0]:.3f} -> {model.loss_trace[-1]:.3f}\n")

# --- classify every statement of the guide -----------------------------------
# Each statement is embedded on its own, so the whole guide goes through the
# network in one batch.  The margin is the winner's lead over the runner-up.

results = classify_batch(model, prototypes, [encode(s, vocab, hyper.max_len) for s in statements])
for s, result in zip(statements, results):
    print(f"{result.label:<17} {result.similarity:.3f} +{result.margin:.3f}  {s.raw[:52]}")
