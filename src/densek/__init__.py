"""Dense-k-subgraph toolkit: exact baselines, flow / LP / combinatorial
approximation algorithms, reductions between the problem variants, and a
worst-case approximation-ratio analyzer."""

from . import damks, exact, flow, fkp, graph, ratio, reduction, score, simplex

__version__ = "0.1.0"
