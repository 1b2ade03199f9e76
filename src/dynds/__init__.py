"""Dynamic geometric data structures, oracles, and reduction drivers."""

from .colors import CommonColorsDS, DynColorCountDS, cc_oracle, dcc_oracle
from .core_geom import (Box, Interval, RangeTree, VisitCounter,
                        orthant_union_decompose)
from .geom_dyn import (HalfspaceSystem, SemiOnlineEngine, Skyline3DBlock,
                       klee_union_volume, skyline_oracle)
from .range_mode import (DynRangeModeDS, SequenceAdapter, mode_oracle,
                         sequence_minority_oracle, sequence_mode_oracle)
from .reductions import (REDUCTIONS, Counted, KPartiteGraph, OuMvInstance,
                         clique_bruteforce, crosscheck_suite, oumv_answers,
                         parse_graph, parse_oumv, random_kpartite, random_oumv)
from .tensor_ds import (EricksonEager, EricksonLazy, HypercliqueCounting,
                        HypercliqueLazy, LangermanDS, Tensor, oumv_bruteforce)

__version__ = "0.1.0"

__all__ = [
    "Box", "Interval", "RangeTree", "VisitCounter", "orthant_union_decompose",
    "DynRangeModeDS", "SequenceAdapter", "mode_oracle",
    "sequence_minority_oracle", "sequence_mode_oracle",
    "CommonColorsDS", "DynColorCountDS", "cc_oracle", "dcc_oracle",
    "HalfspaceSystem", "SemiOnlineEngine", "Skyline3DBlock",
    "klee_union_volume", "skyline_oracle",
    "EricksonEager", "EricksonLazy", "HypercliqueCounting",
    "HypercliqueLazy", "LangermanDS", "Tensor", "oumv_bruteforce",
    "REDUCTIONS", "Counted", "KPartiteGraph", "OuMvInstance", "clique_bruteforce",
    "crosscheck_suite", "oumv_answers", "parse_graph", "parse_oumv",
    "random_kpartite", "random_oumv",
]
