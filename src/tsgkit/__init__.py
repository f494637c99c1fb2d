"""tsgkit: troubleshooting-guide automation.

Segment a Markdown TSG into statements, identify each statement's
component type with a few-shot twin-network classifier, extract its
constituents with parsers synthesized from input/output examples, and
emit a schematized document plus a notebook-style workflow.
"""

__version__ = "0.1.0"
