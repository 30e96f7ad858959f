"""Cost-model calibration and the paper's reported curves.

The testbed was a pair of Sun SPARCstations (28.5 MIPS) on 10 Mbps
Ethernet, SunOS 4.1.1, TCP with ``TCP_NODELAY``, Sun XDR.  The
:class:`~repro.simnet.clock.CostModel` defaults translate that hardware
into the simulator's charges:

* ``byte_wire`` — 10 Mbps is 0.8 us per byte;
* ``byte_codec`` — the fully eager run is flat at ~2.1 s while moving
  a ~524 KB tree (~655 KB encoded): after wire time the remainder is
  XDR encode + decode and copying on 28.5 MIPS CPUs, which pins the
  per-byte-per-side codec cost near 0.9 us;
* ``message_latency`` and ``page_fault`` — the fully lazy run needed
  ~12 s for ~33 k callbacks (Figs. 4/5), i.e. ~366 us per
  fault + request/reply pair *including* codec work on ~100 encoded
  bytes; with ``byte_codec`` fixed by the eager curve, that leaves
  ~50 us per message and ~40 us per fault.

PAPER_* below are the paper's own curves, digitised off Figures 4-7
(the paper prints no tables of numbers); EXPERIMENTS.md compares them
against what the simulation reproduces.
"""

from __future__ import annotations

from repro.simnet.clock import CostModel

PAPER_COST_MODEL = CostModel()
"""The calibration every figure-regenerating benchmark uses (the
derivation above)."""

ACCESS_RATIOS = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
"""X axis of Figures 4, 5 and 7."""

FIG4_NODES = 32767
"""Tree size of the Figure 4/5/7 experiments."""

FIG4_CLOSURE = 8192
"""Closure size (bytes) of the proposed method in Figures 4, 5 and 7."""

FIG6_NODE_COUNTS = [16383, 32767, 65535]
"""Tree sizes swept in Figure 6."""

FIG6_CLOSURE_SIZES = [
    0,
    1024,
    2048,
    4096,
    8192,
    16384,
    24576,
    32768,
    49152,
]
"""Closure sizes (bytes) swept in Figure 6 (paper X axis: 0-50 KB)."""

FIG6_REPEATS = 10
"""Paper: "visited from the root to the leaves for 10 times"."""

# -- the paper's curves, read off the printed figures -------------------------
#
# The 1994 proceedings reproduce the plots at low resolution; values are
# digitised to roughly +-10%.  They are reference shapes, not ground
# truth to three digits.

PAPER_FIG4_EAGER = {ratio: 2.1 for ratio in ACCESS_RATIOS}
PAPER_FIG4_LAZY = {
    0.0: 0.05, 0.1: 1.2, 0.2: 2.4, 0.3: 3.6, 0.4: 4.8, 0.5: 6.0,
    0.6: 7.2, 0.7: 8.4, 0.8: 9.6, 0.9: 10.8, 1.0: 12.0,
}
PAPER_FIG4_PROPOSED = {
    0.0: 0.1, 0.1: 0.4, 0.2: 0.75, 0.3: 1.1, 0.4: 1.45, 0.5: 1.8,
    0.6: 2.1, 0.7: 2.45, 0.8: 2.8, 0.9: 3.1, 1.0: 3.4,
}

PAPER_FIG5_LAZY = {
    ratio: int(ratio * FIG4_NODES) for ratio in ACCESS_RATIOS
}
PAPER_FIG5_PROPOSED = {
    0.0: 1, 0.1: 10, 0.2: 25, 0.3: 45, 0.4: 70, 0.5: 100,
    0.6: 135, 0.7: 175, 0.8: 220, 0.9: 270, 1.0: 330,
}

PAPER_FIG6_OPTIMA = {16383: 4096, 32767: 8192, 65535: 16384}
"""Paper: optimal closure sizes were 4, 8 and 16 KB respectively."""

PAPER_FIG7_RATIO_UPDATED_TO_VISITED = 2.0
"""Paper: updated processing time is "just twice" the visit-only time."""
