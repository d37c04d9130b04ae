"""The InterCom collective communication library (the paper's
contribution): building-block primitives, hybrid strategies (section 5's
compositions are their one-dimension case) with cost-model-driven
selection, and group collectives.
"""

from . import api
from .bidirectional import bidirectional_collect, bidirectional_reduce_scatter
from .cartesian import CartGrid
from .communicator import Communicator
from .context import CollContext
from .costmodel import CostModel, ceil_log2
from .groups import GroupStructure, classify
from .ops import (BAND, BOR, BXOR, MAX, MIN, PROD, STANDARD_OPS, SUM,
                  CombineOp, get_op)
from .partition import (coarsen, partition_offsets, partition_sizes, split)
from .plans import Plan, make_plan
from .selection import Choice, Selector, selector_for
from .strategy import (Strategy, candidates, family_ops,
                       ordered_factorizations)

__all__ = [
    "api", "bidirectional_collect", "bidirectional_reduce_scatter",
    "CartGrid", "Communicator", "CollContext", "CostModel", "ceil_log2",
    "Plan", "make_plan",
    "GroupStructure", "classify",
    "BAND", "BOR", "BXOR", "MAX", "MIN", "PROD", "STANDARD_OPS", "SUM",
    "CombineOp", "get_op",
    "coarsen", "partition_offsets", "partition_sizes", "split",
    "Choice", "Selector", "selector_for",
    "Strategy", "candidates", "family_ops", "ordered_factorizations",
]
