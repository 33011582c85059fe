"""One fresh-process set-up of a benchmark run: import densek from the
checkout and parse every input file, then print ``ready``.

``run.py`` times several of these from process start to the ``ready`` line;
their median is the ``setup_s`` metric.  Usage: setup_probe.py SRC [FILE...]
"""

import sys

src, *paths = sys.argv[1:]
sys.path.insert(0, src)

import densek  # noqa: E402  (the checkout's package, found through SRC)
import densek.cli  # noqa: E402

for path in paths:
    with open(path, encoding="utf-8") as handle:
        densek.graph.parse_edge_list(handle.read())
print("ready", flush=True)
