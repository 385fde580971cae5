"""Corpus records, rule handling, serialization and the synthetic corpus;
import from the submodules."""
