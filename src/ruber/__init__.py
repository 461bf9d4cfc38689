"""RUBER: blended referenced and unreferenced evaluation of dialog replies.

The referenced side compares a candidate reply against the ground-truth
reply through pooled word embeddings; the unreferenced side scores
query-reply relatedness with a trained recurrent matcher.  Both are
normalized over the evaluation set and combined with simple blends.

The package exports the names of the README's "Library use" example and
:class:`RuberError`.  Everything else is imported from the module that
defines it, for example ``ruber.corpus.load_pairs`` or
``ruber.scoretable.compute_score_table``.
"""

from .blending import blend, normalize
from .embeddings import load_text_embeddings
from .errors import RuberError
from .referenced import referenced_score
from .unreferenced import load_checkpoint, unreferenced_score

__version__ = "0.1.0"

__all__ = [
    "RuberError",
    "blend",
    "load_checkpoint",
    "load_text_embeddings",
    "normalize",
    "referenced_score",
    "unreferenced_score",
]
