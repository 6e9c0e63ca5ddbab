"""Seeded inputs for the benchmark: the many-class model the daemon serves,
and the what-if flags of the analyst's report run.

Everything here is a pure function of the seed, so the same seed gives
the same files and flags.
"""

import random

# Far more classes than the paper's two, so a what-if miss (~3 us in
# process) costs about four times a cached hit (~0.7 us).
CLASSES = 12


def wide_model(seed, classes=CLASSES):
    """Model, trial-profile and field-profile texts (model_io v1 formats)
    over `classes` classes with seeded parameters and an enriched trial
    mix."""
    rng = random.Random(seed)
    names = ["c%d" % i for i in range(classes)]
    model = ["hmdiv-sequential-model v1"]
    difficulty = []
    for name in names:
        d = rng.random()
        difficulty.append(d)
        p_mf = 0.02 + 0.6 * d * rng.uniform(0.5, 1.0)
        p_hf_mf = rng.uniform(0.3, 0.95)
        p_hf_ms = rng.uniform(0.02, 0.3)
        model.append("class %s %r %r %r" % (name, p_mf, p_hf_mf, p_hf_ms))
    # Trials enrich difficult cases; the field sees mostly easy ones.
    trial = _profile(names, [0.2 + d for d in difficulty])
    field = _profile(names, [(1.2 - d) ** 3 * rng.uniform(0.5, 1.5)
                             for d in difficulty])
    return "\n".join(model) + "\n", trial, field


def _profile(names, weights):
    total = sum(weights)
    lines = ["hmdiv-demand-profile v1"]
    for name, w in zip(names, weights):
        lines.append("class %s %r" % (name, w / total))
    return "\n".join(lines) + "\n"


def improvements(seed):
    """Two --improve factors for the paper example's classes, at the two
    decimals the report prints them with."""
    rng = random.Random(seed ^ 0x5EED)
    return {"difficult": round(rng.uniform(0.05, 0.9), 2),
            "easy": round(rng.uniform(0.05, 0.9), 2)}
