"""tsgkit: troubleshooting-guide automation.

Segment a Markdown TSG into statements, identify each statement's
component type with a few-shot twin-network classifier, extract its
constituents with parsers synthesized from input/output examples, and
emit a schematized document plus a notebook-style workflow.
"""

from .clauses import Lexicon, load_lexicon, strip_tags, tag_clauses
from .dsl import (
    AbsPos,
    Branch,
    ConstStr,
    EvalFailure,
    ExtractionProgram,
    ParseError,
    Predicate,
    RegPos,
    SubStr,
    eval_program,
    parse,
    serialize,
)
from .extract import (
    ParsedComponent,
    ParserRegistry,
    RegistryEntry,
    extract,
    extract_repeating,
    load_registry,
    save_registry,
    split_pipes,
)
from .identify import (
    Classification,
    Prototype,
    classify,
    classify_batch,
    compute_prototypes,
    fit,
    knn_bow_classify,
)
from .ingest import RawDocument, Statement, clean_document, segment, tokenize
from .pipeline import SchematizedTSG, Workflow, emit_workflow, schematize
from .siamese import (
    Hyper,
    SiameseModel,
    embed_batch,
    pair_loss,
    sample_pairs,
    train,
)
from .synthesis import (
    Bounds,
    ExampleSpec,
    SynthesisFailure,
    generate_atoms,
    load_spec,
    synthesize,
)
from .vectorize import Vocabulary, bow, build_vocabulary, encode

__version__ = "0.1.0"
