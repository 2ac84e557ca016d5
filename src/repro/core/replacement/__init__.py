"""Cache replacement policies (Section 3.3 of the paper).

The spec-string factory is the main entry point::

    from repro.core.replacement import create_policy

    policy = create_policy("ewma-0.5")   # the paper's best scheme
    policy = create_policy("lru-3")      # LRU-k with k = 3
    policy = create_policy("window-10")  # Win-10

Importing this package registers every built-in policy.
"""

from repro.core.replacement.base import (
    ReplacementPolicy,
    available_policies,
    create_policy,
    register_policy,
)
from repro.core.replacement.clock import ClockPolicy, FIFOPolicy
from repro.core.replacement.cms_lru import CMSAdmissionLRUPolicy
from repro.core.replacement.duration import (
    DurationScoredPolicy,
    EWMAPolicy,
    MeanPolicy,
    WindowPolicy,
)
from repro.core.replacement.lrd import LRDPolicy
from repro.core.replacement.lrfu import LRFUPolicy
from repro.core.replacement.lru import LRUPolicy
from repro.core.replacement.lru_k import LRUKPolicy
from repro.core.replacement.random_policy import RandomPolicy
from repro.core.replacement.sketch import CountMinSketch
from repro.core.replacement.tinylfu import WTinyLFUPolicy

__all__ = [
    "CMSAdmissionLRUPolicy",
    "ClockPolicy",
    "CountMinSketch",
    "DurationScoredPolicy",
    "EWMAPolicy",
    "FIFOPolicy",
    "LRDPolicy",
    "LRFUPolicy",
    "LRUKPolicy",
    "LRUPolicy",
    "MeanPolicy",
    "RandomPolicy",
    "ReplacementPolicy",
    "WTinyLFUPolicy",
    "WindowPolicy",
    "available_policies",
    "create_policy",
    "register_policy",
]
