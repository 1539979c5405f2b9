"""Transaction-database substrate: data structures, I/O, generators."""

from repro.datasets.fimi import (
    fimi_dumps,
    fimi_loads,
    read_fimi,
    write_fimi,
)
from repro.datasets.generators import (
    aol_like,
    kosarak_like,
    mushroom_like,
    pumsb_star_like,
    retail_like,
)
from repro.datasets.registry import (
    cached_top_k,
    clear_caches,
    dataset_names,
    load_dataset,
)
from repro.datasets.stats import DatasetStats, dataset_stats, topk_size_profile
from repro.datasets.synthetic import QuestConfig, generate_quest
from repro.datasets.transactions import (
    Itemset,
    TransactionDatabase,
    canonical_itemset,
)

__all__ = [
    "DatasetStats",
    "Itemset",
    "QuestConfig",
    "TransactionDatabase",
    "aol_like",
    "cached_top_k",
    "canonical_itemset",
    "clear_caches",
    "dataset_names",
    "dataset_stats",
    "fimi_dumps",
    "fimi_loads",
    "generate_quest",
    "kosarak_like",
    "load_dataset",
    "mushroom_like",
    "pumsb_star_like",
    "read_fimi",
    "retail_like",
    "topk_size_profile",
    "write_fimi",
]
