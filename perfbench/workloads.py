"""The benchmark's workloads.

A workload fixes a loss and regularizer, a seeded input generator, the race of
methods run on each input through ``cnsopt.bench.run_experiment``, one target
gap shared by every method, and how the gap is measured:

- ``certificate``: P* is bounded below by the hinge + elastic-net dual bound
  of ``reference.py``, so a reported gap is an upper bound on the true gap;
- ``reference``: P* is ``continuation.reference_objective``, as in the
  acceptance tests (the dual bound is about 100x loose for absolute + l1).

Every method must reach the target gap and end at or below the workload's
final-gap bound (the stochastic methods' gaps wander after reaching the
target); a run that does not counts as failed.
"""

import math
from dataclasses import dataclass, field

from cnsopt import datasets
from cnsopt.bench import RunConfig
from cnsopt.datasets import CLASSIFICATION, REGRESSION, SparseDataset, SyntheticSpec
from cnsopt.problem import CompositeProblem, Regularizer
from cnsopt.smoothing import ABSOLUTE, HINGE

CERTIFICATE = "certificate"
REFERENCE = "reference"


@dataclass(frozen=True)
class Method:
    """One entry of a race: the metric prefix and the RunConfig fields it sets."""

    label: str
    options: dict


@dataclass
class Input:
    """One generated problem instance: the synthetic spec (the dense workload
    hands the spec itself to the program) and the data it produces."""

    seed: int
    data: SparseDataset
    spec: SyntheticSpec


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loss: str
    nu1: float
    nu2: float
    instances: int
    target_gap: float
    final_gap_bound: float
    gap_measure: str
    libsvm: bool
    generate: object
    methods: tuple
    reference: dict = field(default_factory=dict)

    @property
    def task(self):
        return CLASSIFICATION if self.loss == HINGE else REGRESSION

    def problem(self, data):
        return CompositeProblem(data, self.loss, Regularizer(nu1=self.nu1, nu2=self.nu2))

    def instance_seeds(self, seed):
        """Seeds of the instances one run draws; fixed by the run's seed."""
        return [seed * 100 + j for j in range(self.instances)]

    def setup(self, inp, path):
        """What setup_s times: generated input to a problem ready to solve."""
        if self.libsvm:
            data = datasets.parse_libsvm(path, task=self.task)
        else:
            data, _ = datasets.make_synthetic(inp.spec)
        return self.problem(data)

    def run_config(self, method, inp, path, output=None):
        source = {"dataset": str(path)} if self.libsvm else {"synthetic": inp.spec}
        return RunConfig(
            loss=self.loss, nu1=self.nu1, nu2=self.nu2, seed=inp.seed,
            output=None if output is None else str(output), **source, **method.options,
        )

    def method(self, label):
        return next(m for m in self.methods if m.label == label)

    def describe(self):
        return {
            "name": self.name,
            "loss": self.loss,
            "nu1": self.nu1,
            "nu2": self.nu2,
            "instances_per_run": self.instances,
            "target_gap": self.target_gap,
            "final_gap_bound": self.final_gap_bound,
            "gap_measure": self.gap_measure,
            "input": "libsvm text" if self.libsvm else "in-memory dense (make_synthetic)",
            "methods": {m.label: m.options for m in self.methods},
            "reference": self.reference,
        }


def strongly_convex_input(seed):
    """The acceptance suite's strongly convex instance (tests/conftest.py)."""
    spec = SyntheticSpec(n=1000, d=50, task=CLASSIFICATION, sparsity=0.2, noise=0.1,
                         separation=1.5, seed=seed)
    return Input(seed, datasets.make_synthetic(spec)[0], spec)


def general_convex_input(seed):
    """The acceptance suite's general convex instance (tests/conftest.py)."""
    spec = SyntheticSpec(n=600, d=50, task=REGRESSION, sparsity=0.2, noise=0.1, seed=seed)
    return Input(seed, datasets.make_synthetic(spec)[0], spec)


SC_DENSE = Workload(
    name="sc-dense",
    why=("Hinge+elastic net, n=1000 d=50 dense rows in memory; per-call overhead dominates, "
         "no text I/O. Target gap 1e-5, final gap <= 4e-5, certified by the dual bound."),
    loss=HINGE, nu1=0.002, nu2=0.08, instances=16, target_gap=1e-5, final_gap_bound=4e-5,
    gap_measure=CERTIFICATE,
    libsvm=False, generate=strongly_convex_input,
    methods=(
        Method("cns_a", dict(method="cns-a", solver="acc-prox-svrg", gamma1=0.01, tau=2.0,
                             t1=500, stages=8, batch_size=50, cadence=40)),
        Method("cns_na", dict(method="cns-na", solver="prox-svrg", gamma1=0.01, tau=2.0,
                              t1=600, stages=4, theta=0.2, step_scale=4.0, batch_size=50,
                              cadence=40)),
        Method("apg", dict(method="cns-a", solver="apg", gamma1=0.01, tau=2.0, t1=75,
                           stages=8, cadence=10)),
        Method("fobos", dict(method="fobos", eta0=1.0, iterations=5000, batch_size=50,
                             cadence=50)),
    ),
    reference=dict(solver="apg", gamma1=0.01, tau=2.0, t1=75, stages=10),
)

GC_LIBSVM = Workload(
    name="gc-libsvm",
    why=("Absolute loss+l1, n=600 d=50 read back from LIBSVM text as CSR; the CSR path at "
         "tiny shapes. Target gap 1.5e-4, final gap <= 6e-4, against reference_objective."),
    loss=ABSOLUTE, nu1=0.005, nu2=0.0, instances=10, target_gap=1.5e-4, final_gap_bound=6e-4,
    gap_measure=REFERENCE,
    libsvm=True, generate=general_convex_input,
    methods=(
        Method("cns_a", dict(method="cns-a", solver="acc-prox-svrg", gamma1=0.1, tau=2.0,
                             t1=100, stages=5, lam1=1e-5, batch_size=100, cadence=30)),
        Method("cns_na", dict(method="cns-na", solver="prox-svrg", gamma1=0.03,
                              tau=math.sqrt(2.0), t1=300, stages=5, lam1=1e-5, theta=0.2,
                              step_scale=8.0, batch_size=100, cadence=30)),
        Method("apg", dict(method="cns-a", solver="apg", gamma1=0.1, tau=2.0, t1=100,
                           stages=6, lam1=1e-5, cadence=10)),
        Method("fobos", dict(method="fobos", eta0=1.0, iterations=6000, batch_size=100,
                             cadence=50)),
    ),
    reference=dict(gamma=1e-6, iterations=10_000, gamma1=0.1, warm_iterations=500),
)

WORKLOADS = {w.name: w for w in (SC_DENSE, GC_LIBSVM)}
