"""Dense-k-subgraph toolkit: exact baselines, flow / LP / combinatorial
approximation algorithms, reductions between the problem variants, and a
worst-case approximation-ratio analyzer.

``import densek`` loads no submodule and no numpy.  Each submodule loads
on its first use, either by a plain import or as an attribute of the
package (``densek.flow.dalks_2approx``).  numpy comes with the solver layers
(``damks``, ``fkp``, ``score``, ``simplex``, ``ratio``) and at the first
call of ``graph.Graph.ends`` or ``exact.exact_solve``; ``flow``,
``reduction`` and the parser need none of it.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = frozenset(
    ("damks", "exact", "flow", "fkp", "graph", "ratio", "reduction", "score", "simplex")
)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
