"""Decompose planar semimodular lattices into patch lattices glued over
chains, with machine-checkable certificates."""

from .core import (Irreducibility, Lattice, SubsetRole, classify_subset,
                   interval, irreducibility, is_isomorphic, is_semimodular)
from .diagram import (BoundaryData, Diagram, DiagramViolation, EyeRecord,
                      find_eyes, is_patch, is_rectangular, is_slim, reflect,
                      restore_eyes, slim, subdiagram, synthesize_embedding,
                      upper_left_boundary, validate_diagram)
from .documents import (export_dot, parse_document, parse_tree_document,
                        serialize, serialize_tree)
from .generators import generate
from .ops import (DecompositionCut, ExtensionStep, GluingWitness, choose_x,
                  decompose_at, find_extension_sites, glue_over_chain,
                  one_step_extension, rectangularize, restrict_gluing,
                  validate_witness, witness_from_cut)
from .pipeline import (DecompGlue, DecompLeaf, PipelineTrace, TreeViolation,
                       brute_force_gluing_search, decompose, sequence_of,
                       verify_tree)

__all__ = [
    "BoundaryData", "Diagram", "DiagramViolation", "DecompGlue", "DecompLeaf",
    "DecompositionCut", "ExtensionStep", "EyeRecord", "GluingWitness",
    "Irreducibility", "Lattice", "PipelineTrace", "SubsetRole",
    "TreeViolation", "brute_force_gluing_search", "choose_x",
    "classify_subset", "decompose", "decompose_at", "export_dot",
    "find_extension_sites", "find_eyes", "generate", "glue_over_chain",
    "interval", "irreducibility", "is_isomorphic", "is_patch",
    "is_rectangular", "is_semimodular", "is_slim", "one_step_extension",
    "parse_document", "parse_tree_document", "rectangularize", "reflect",
    "restore_eyes", "restrict_gluing", "sequence_of", "serialize",
    "serialize_tree", "slim", "subdiagram", "synthesize_embedding",
    "upper_left_boundary", "validate_diagram", "validate_witness",
    "verify_tree", "witness_from_cut",
]
