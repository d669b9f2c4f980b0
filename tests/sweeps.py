import os


def sweep(tier1, ci):
    """(seed, size) of a seeded sweep in tests/: GITHUB_RUN_NUMBER, which GitHub Actions
    sets, and ``ci``, so CI draws anew each run; without it, 0 and the smaller ``tier1``."""
    run_number = os.environ.get("GITHUB_RUN_NUMBER")
    return (int(run_number), ci) if run_number else (0, tier1)
