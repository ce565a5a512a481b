"""Exact-computation laboratory for rooted unordered trees.

Minor embeddings, largest common minors, smallest common supertrees under
minor embeddings, the quotient-supergraph construction with its reduction
and path-uniqueness checks, and parameterized counterexample families with
machine-verified size gaps.
"""

from .errors import (BudgetError, EmbeddingError, InvalidTreeError,
                     MultiRootError, ParseError, SolverDisagreement, TreeError)
from .trees import (Digraph, StructureViolation, Tree, are_isomorphic,
                    canonical_code, chain, enumerate_trees, format_tree,
                    is_rooted_tree, parse_tree, star, to_dot, tree_from_arcs,
                    validate)
from .embeddings import (EmbeddingViolation, Lemma4Witness, MinorEmbedding,
                         check_embedding, check_lemma4, enumerate_embeddings,
                         find_embedding, incomparable, induced_minor, is_minor)
from .solvers import (CommonTreeWitness, LcsResult, ScsResult,
                      largest_common_minor, smallest_common_supertree)
from .quotient import (Prop21Report, Prop21Violation, QuotientGraph,
                       ThetaClass, build_quotient, check_eq2_eq3, check_prop21,
                       eq4_prediction, quotient_to_dot, reduce_quotient)
from .families import (DegenerateFamilyWarning, Fig1Instance, ScanReport,
                       SupertreeCandidate, TripleMergeWitness,
                       VerificationReport, check_fig5_claims, check_theorem5,
                       fig1_family, fig2_candidates, fig4_family, fig5_family,
                       region_images, scan_pairs, subproblem_transfer_check,
                       verify_counterexample)

__version__ = "0.1.0"
