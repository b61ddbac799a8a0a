"""Workbench for finitely presented consequence systems and ontologies:
bounded Hilbert-style derivability, fibring-based combination, ontology
connection, and splittable development graphs.

The package re-exports nothing: import each name from the module that
defines it, e.g. ``from ontoweave.consequence import derives``."""

__version__ = "0.1.0"
