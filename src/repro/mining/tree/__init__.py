"""C4.5 decision tree induction (the paper's symbolic pattern learner).

The paper induces its detection predicates with Quinlan's C4.5 [34]
(Weka's J48).  This package reimplements the parts the paper exercises:

* gain-ratio split selection with the average-gain gate
  (:mod:`repro.mining.tree.induction`), growing one tree or several
  together (:func:`fit_trees`),
* binary splits on numeric attributes and multiway splits on nominal
  ones, with fractional handling of missing values in both training and
  prediction,
* instance weights throughout (needed for Ting-style cost-sensitive
  learning),
* pessimistic-error subtree-replacement pruning with a confidence
  factor (:mod:`repro.mining.tree.pruning`),
* tree rendering and complexity accounting
  (:mod:`repro.mining.tree.export`) -- the ``Comp`` column of
  Tables III/IV is the node count reported here.
"""

from repro.mining.tree.node import DecisionNode, LeafNode, TreeNode
from repro.mining.tree.induction import C45DecisionTree, fit_trees
from repro.mining.tree.export import render_tree, tree_to_rules

__all__ = [
    "C45DecisionTree",
    "fit_trees",
    "TreeNode",
    "DecisionNode",
    "LeafNode",
    "render_tree",
    "tree_to_rules",
]
