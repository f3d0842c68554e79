"""Seeded request lists for the three benchmark workloads.

A request is the argv of one ``noiseamp`` CLI call plus the exit code a
correct program returns.  Each workload is a fixed mix of request slots:
the slot grid (command, algorithm, problem size, refine budget, step
count) and the send order are the same for every seed, and the seed only
jitters values inside narrow bands and draws the spectra and simulation
seeds.  The total work of a pass over the list therefore barely depends on
the seed, which keeps run-to-run spreads small, while different seeds
still send different inputs.  A fixed order also keeps peak memory from
depending on which large arrays happen to be freed before which.

Only the standard library is used here, so building a list costs no
import time and does not depend on the numpy version.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Percentile reported as ``latency_tail_ms`` for each workload.  It is the
# highest of 75/90/95/99 that leaves at least ten samples beyond it in a
# run at the seed commit, and it stays fixed so that a faster program
# (more samples) is compared at the same percentile.  The lists are built
# so that this percentile, and the median, fall inside a group of similar
# requests rather than on the boundary between unlike ones, for any
# number of passes.
TAIL_PERCENTILE = {"interactive": 95, "networks": 75, "mc_validation": 75}

WORKLOADS = tuple(TAIL_PERCENTILE)


@dataclass(frozen=True)
class KnownDefect:
    """A wrong outcome the program gives at this commit, and its signature.

    ``reason`` is the exact failure message ``checks.py`` gives for this
    defect; the same request failing any other way is an unexpected failure.
    """
    description: str
    reason: str


# Known defects: requests whose correct outcome the program does not give
# at this commit.  They stay in the mix and count as failed; the run stays
# ``correct`` only while every failure is one of these.
UNSTABLE_EXPLICIT_CONSENSUS = KnownDefect(
    "consensus with --params explicit does not check stability and exits 0 "
    "on an unstable step size (ROADMAP item 3)", "exit 0, expected 3")


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    expect_exit: int = 0
    known_defect: KnownDefect | None = None


def _num(x: float) -> str:
    return repr(float(x))


def _jitter(rng: random.Random, x: float, rel: float) -> float:
    return x * rng.uniform(1.0 - rel, 1.0 + rel)


def _spectrum(rng: random.Random, kappa: float, n: int) -> str:
    """Eigenvalues with extremes 1 and kappa, the rest log-uniform."""
    inner = [kappa ** rng.random() for _ in range(n - 2)]
    return ",".join(_num(v) for v in [1.0, kappa, *inner])


def _interactive(rng: random.Random) -> list[Request]:
    reqs: list[Request] = []
    algos = ("gd", "hb", "na")
    # Many small analyze requests: they hold the median.
    for i in range(28):
        n = 3 + round(47 * i / 27)
        kappa = _jitter(rng, 10.0 ** (1.0 + 3.0 * ((5 * i) % 28) / 27.0), 0.1)
        algo = algos[i % 3]
        params = "table1" if algo != "hb" and i % 4 == 0 else "table2"
        if i % 3 == 0:
            source = ["--kappa", _num(kappa), "--n", str(n)]
        else:
            source = ["--spectrum", _spectrum(rng, kappa, n)]
        reqs.append(Request(("analyze", "--algo", algo, "--params", params,
                             *source)))
    for i in range(4):
        kappa = _jitter(rng, 10.0 ** (1 + 4 * i / 3), 0.1)
        reqs.append(Request(("bounds", "--algo", algos[i % 3], "--kappa",
                             _num(kappa), "--n", str(rng.randint(2, 50)))))
    # Certificates: the refine budget sets the cost, so the budgets are a
    # fixed grid and the seed only moves kappa within +-10%.  NA refinement
    # is most of a pass.  Its cost is spread over many mid-budget requests
    # rather than a few full-budget ones, so that one slow call moves the
    # pass time less.  The six budget-1000 NA requests hold the tail.
    for algo, decades, budgets in (
            ("na", (1, 1.5, 2, 2.5, 3, 3.5, 4, 3, 3.5, 4, 4.5, 5, 5.5, 6),
             (200, 300, 400, 500, 600, 700, 800,
              1000, 1000, 1000, 1000, 1000, 1000, 2000)),
            ("gd", (1.5, 3, 4.5, 6), (200, 800, 1400, 2000))):
        for dec, budget in zip(decades, budgets):
            kappa = min(_jitter(rng, 10.0 ** dec, 0.1), 1e6)
            reqs.append(Request(("certify", "--algo", algo, "--kappa",
                                 _num(kappa), "--n", str(rng.randint(1, 20)),
                                 "--refine", str(budget))))
    for algo, kappa, n, cap in (("gd", 10, 10, 0.5), ("gd", 100, 30, 1.0),
                                ("gd", 1000, 50, 0.8), ("hb", 10, 50, 1.0),
                                ("hb", 100, 20, 1.0), ("hb", 1000, 10, 0.5)):
        kappa = _jitter(rng, kappa, 0.1)
        reqs.append(Request(("tune", "--algo", algo, "--spectrum",
                             _spectrum(rng, kappa, n), "--cap-constant",
                             _num(_jitter(rng, cap, 0.1)))))
    for i, n0 in enumerate((8, 16, 32, 48, 64)):
        reqs.append(Request(("consensus", "--algo", algos[i % 3], "--torus",
                             f"2,{n0 - rng.randint(0, 2)}",
                             "--sigma", _num(rng.uniform(0.5, 2.0)))))
    sims = []
    for i in range(4):
        kappa = rng.uniform(2.0, 20.0)
        sims.append(Request(("simulate", "--algo", algos[i % 3],
                             "--spectrum",
                             _spectrum(rng, kappa, rng.randint(2, 4)),
                             "--steps", "20000",
                             "--seed", str(rng.randrange(1 << 30)))))
    # The same simulation twice: the check demands a bit-identical j_hat.
    reqs += sims + [sims[0]]
    kappa = _jitter(rng, 50.0, 0.5)
    reqs.append(Request(("analyze", "--algo", "gd", "--kappa", _num(kappa),
                         "--n", str(rng.randint(2, 20)), "--params",
                         "explicit", "--alpha",
                         _num(rng.uniform(2.2, 3.0) / kappa)), expect_exit=3))
    for algo in ("gd", "hb"):
        reqs.append(Request(("tune", "--algo", algo, "--kappa",
                             _num(_jitter(rng, 300.0, 0.5)), "--n",
                             str(rng.randint(2, 30)), "--cap-constant",
                             _num(rng.uniform(2.5, 3.5))), expect_exit=3))
    # GD on a 2-d torus with an even n0 has L = 8, so alpha > 0.25 is
    # unstable.
    reqs.append(Request(("consensus", "--algo", "gd", "--torus",
                         f"2,{2 * rng.randint(3, 8)}", "--params", "explicit",
                         "--alpha", _num(rng.uniform(0.3, 1.5))),
                        expect_exit=3,
                        known_defect=UNSTABLE_EXPLICIT_CONSENSUS))
    return reqs


def _networks(rng: random.Random) -> list[Request]:
    reqs: list[Request] = []
    algos = ("gd", "hb", "na")
    d2 = (256, 420, 540, 700, 900, 1150, 1500, 2000)
    for i, n0 in enumerate(d2):
        n0 = round(_jitter(rng, n0, 0.02)) if n0 != d2[-1] else n0
        reqs.append(Request(("consensus", "--algo", algos[i % 3], "--torus",
                             f"2,{n0}")))
    # The largest lattice is fixed (8e6 nodes, under MAX_NETWORK_SIZE) so
    # that peak memory does not move with the seed.  The 3,175 torus costs
    # about as much as the two torus analyze requests and the 2,2000
    # consensus; with it those four hold the p75, which then does not sit
    # on the step between unlike requests.
    d3 = (64, 90, 120, 175)
    for i, n0 in enumerate(d3):
        reqs.append(Request(("consensus", "--algo", algos[i % 3], "--torus",
                             f"3,{round(_jitter(rng, n0, 0.02))}")))
    reqs.append(Request(("consensus", "--algo", "na", "--torus", "3,200")))
    for d, sizes in ((2, (64, 128, 256, 512, 1024)),
                     (3, (16, 24, 32, 48, 64, 96))):
        n0s = ",".join(str(round(_jitter(rng, s, 0.05))) for s in sizes)
        reqs.append(Request(("sweep", "--algo", algos[d - 2], "--d",
                             str(d), "--n0", n0s, "--format", "csv")))
    small, large = round(_jitter(rng, 210, 0.03)), round(_jitter(rng, 320, 0.03))
    for algo, n0, fmt in (("na", small, "json"), ("hb", small, "csv"),
                          ("gd", large, "json")):
        reqs.append(Request(("analyze", "--algo", algo,
                             "--torus", f"2,{n0}", "--format", fmt)))
    return reqs


def _mc_validation(rng: random.Random) -> list[Request]:
    reqs: list[Request] = []

    def sim(algo, n, steps, *extra):
        kappa = rng.uniform(10.0, 100.0)
        return Request(("simulate", "--algo", algo, "--spectrum",
                        _spectrum(rng, kappa, n), "--steps", str(steps),
                        "--seed", str(rng.randrange(1 << 30)), *extra))

    # Quadratic runs (lfilter path); NA at n = 8 sets peak memory.
    for algo, n, steps in (("gd", 4, 1_000_000), ("hb", 4, 1_000_000),
                           ("na", 8, 1_000_000), ("gd", 2, 200_000),
                           ("hb", 3, 200_000), ("na", 6, 200_000)):
        reqs.append(sim(algo, n, steps))
    # Pseudo-Huber single trajectories (Python stepping loop).
    for i in range(6):
        reqs.append(sim(("gd", "hb", "na")[i % 3], rng.randint(2, 6), 20_000,
                        "--objective", "pseudo-huber", "--delta",
                        _num(rng.uniform(0.5, 2.0))))
    for i, algo in enumerate(("hb", "na")):
        reqs.append(sim(algo, rng.randint(2, 6), 300, "--replicates",
                        str(100 + 50 * i + rng.randint(0, 10))))
        reqs.append(sim(algo, rng.randint(2, 4), 200, "--replicates",
                        str(150 + 50 * i + rng.randint(0, 10)), "--objective",
                        "pseudo-huber"))
    # The same short simulation twice: the check demands a bit-identical
    # j_hat.
    twin = sim("na", 3, 50_000)
    reqs += [twin, twin]
    return reqs


_BUILDERS = {"interactive": _interactive, "networks": _networks,
             "mc_validation": _mc_validation}


def build_requests(workload: str, seed: int) -> list[Request]:
    """The request list of ``workload`` for ``seed``, in send order."""
    reqs = _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
    random.Random(workload).shuffle(reqs)  # the same order for every seed
    return reqs
