"""The benchmark's workloads: which verdict-producing ops each one runs.

An op is one call that produces a verdict.  ``cli`` ops run
``treegrp.cli.main`` in-process with ``--format json --no-timestamp``; ``lib``
ops call a library suite entry point and serialize its report the way the CLI
does.  Every op id is also the key of its stored output digest.

Why each workload is there is in BENCHMARK.json.  The benchmark seed is
folded onto ``SHIPPED_SEEDS`` program seeds, the seeds whose output digests are
stored in ``digests.json``; it feeds ``--seed`` of the sampled suites and the
level sets of the ``lib`` ops.  ``classify`` takes no seed.
"""

from __future__ import annotations

from random import Random

SHIPPED_SEEDS = 32

WORKLOADS = ("classify", "verify-all", "ni-depth")

# Pairs sampled per depth in ni-depth, sized so each depth takes a comparable
# share of a pass (about 1 s each on the pure kernel, shared 2-core x86 VM).
NI_SAMPLES = {6: 5000, 8: 1500, 12: 50, 14: 7}


def cli(*args: str) -> dict:
    argv = list(args) + ["--format", "json", "--no-timestamp"]
    return {"id": "cli: " + " ".join(args), "kind": "cli", "argv": argv}


def ni_lib(d: int, samples: int, seed: int) -> dict:
    """verify_ni_identities at depth d on a seeded level set containing d-1."""
    rng = Random(seed * 1000 + d)
    levels = [d - 1] + [j for j in range(d - 1) if rng.random() < 0.5]
    levels.sort()
    return {
        "id": f"lib: verify_ni_identities --d {d} --J {','.join(map(str, levels))} "
              f"--samples {samples} --seed {seed}",
        "kind": "lib", "d": d, "J": levels, "samples": samples, "seed": seed,
    }


def program_seed(seed: int) -> int:
    return seed % SHIPPED_SEEDS


def ops(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The ops of one pass.  `tiny` gives a seconds-long version for self-tests."""
    s = str(program_seed(seed))
    if workload == "classify":
        if tiny:
            return [cli("classify", "--d", "3"), cli("classify", "--d", "5", "--gf2")]
        return [cli("classify", "--d", "4"), cli("classify", "--d", "3"),
                cli("classify", "--d", "5", "--gf2")]
    if workload == "verify-all":
        if tiny:
            return [cli("verify", "--suite", "all", "--d", "2", "--samples", "20", "--seed", s)]
        return [cli("verify", "--suite", "all", "--d", "4", "--seed", s)]
    if workload == "ni-depth":
        n = program_seed(seed)
        if tiny:
            return [cli("verify", "--suite", "ni", "--d", "6", "--samples", "20", "--seed", s),
                    cli("verify", "--suite", "noadad", "--d", "8"),
                    ni_lib(12, 1, n)]
        return [cli("verify", "--suite", "ni", "--d", "6", "--samples", str(NI_SAMPLES[6]),
                    "--seed", s),
                cli("verify", "--suite", "ni", "--d", "8", "--samples", str(NI_SAMPLES[8]),
                    "--seed", s),
                cli("verify", "--suite", "noadad", "--d", "8"),
                ni_lib(12, NI_SAMPLES[12], n),
                ni_lib(14, NI_SAMPLES[14], n)]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
