"""Seeded inputs and requests for the benchmark workloads.

Inputs come from a fixed grid of shapes plus the seed.  The shape of input
``j`` (frame size, constraints, how many focal elements of which form, how
they overlap) is drawn from a generator seeded by ``(workload, j)`` alone;
the seed then picks a relabelling of the frame and every mass.  So the same
seed always yields the same requests, and every seed yields the same mix of
shapes: seeds change what the package computes but not how much work it
takes, which keeps run-to-run spread down to the machine's own noise.

Generation uses only the region-semantics oracle from ``tests/oracles.py``
(to keep focal elements non-empty and distinct), never the package under
test; the package receives only the finished documents.

A workload object is stateless apart from its input cache.  ``prepare(i)``
generates the inputs of request ``i`` (outside the timed region),
``start(mf)`` returns the per-phase state, ``request(state, i)`` performs
request ``i`` and returns what ``check``/``cross_check`` need.  Request
indices start at 0 (the warm-up request), so every phase replays the same
sequence.
"""

from __future__ import annotations

import random

import verify
from oracles import RegionOracle

LABELS = "ABCDEFGHIJKLMNOP"  # one character each, so relabelling is per character
MASS_SCALE = 10 ** 6  # masses are whole millionths, so they round-trip exactly

RULES = (
    "conjunctive", "disjunctive", "dempster", "smets", "yager", "dubois_prade",
    "dsm_hybrid", "wao", "minc", "pcr1", "pcr2", "pcr3", "pcr4", "pcr5",
)
TRACKING_RULES = ("pcr5", "minc", "dsm_hybrid", "dempster", "pcr4")


def weights(rng, count):
    """``count`` positive masses that are multiples of 1e-6 and sum to one."""
    raw = [rng.randint(1, 1000) for _ in range(count)]
    total = sum(raw)
    scaled = [r * MASS_SCALE // total for r in raw]
    scaled[0] += MASS_SCALE - sum(scaled)
    return [w / MASS_SCALE for w in scaled]


def relabelling(rng, labels):
    """A random permutation of ``labels``, as a function on expression text."""
    table = str.maketrans(dict(zip(labels, rng.sample(labels, len(labels)))))
    return lambda text: text.translate(table)


def mass_table(rng, expressions, relabel):
    """Relabelled expressions with seeded masses."""
    return dict(zip(map(relabel, expressions), weights(rng, len(expressions))))


def random_expr(rng, labels, depth):
    """A random set expression over ``labels`` with nesting up to ``depth``."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(labels)
    op = rng.choice("|&")
    return f"({random_expr(rng, labels, depth - 1)}{op}{random_expr(rng, labels, depth - 1)})"


class HyperFrame:
    """The shape of a free or hybrid frame: labels, constraints, alive regions."""

    def __init__(self, rng, n, constraints, max_arity):
        self.labels = list(LABELS[:n])
        self.oracle = RegionOracle(self.labels)
        self.constraints = []
        self.alive = self.oracle.universe
        singletons = [self.oracle.evaluate(lab) for lab in self.labels]
        for _ in range(constraints):
            text = "&".join(rng.sample(self.labels, rng.randint(2, max_arity)))
            alive = self.alive - self.oracle.evaluate(text)
            if all(alive & s for s in singletons):  # every hypothesis stays possible
                self.constraints.append(text)
                self.alive = alive

    def focal_elements(self, rng, count, depth, favour=None):
        """``count`` expressions, non-empty and pairwise distinct under the constraints.

        With ``favour`` every other element is drawn to include that label.
        """
        seen = {}
        for attempt in range(200 * count):
            if len(seen) == count:
                break
            text = random_expr(rng, self.labels, depth)
            if favour is not None and attempt % 2 == 0:
                text = f"({favour}|{text})"
            regs = self.oracle.evaluate(text) & self.alive
            if regs and regs not in seen:
                seen[regs] = text
        return list(seen.values())


class CliWorkload:
    """Scenario document -> ``scenario_from_dict`` -> ``run_scenario`` -> machine report.

    Request ``i`` runs document ``i % pool``; document shapes cycle through
    a fixed list of strata, lightest first so that the warm-up is cheap.
    """

    pool = 0
    strata = ()
    check_count = 0  # requests whose outputs are digested and counted exactly

    def __init__(self, seed):
        self.seed = seed
        self._docs = {}

    def document(self, i):
        j = i % self.pool
        doc = self._docs.get(j)
        if doc is None:
            shape = random.Random(f"{self.name}:shape:{j}")
            rng = random.Random(f"{self.name}:{self.seed}:{j}")
            doc = self._docs[j] = self.generate(shape, rng, self.strata[j % len(self.strata)])
        return doc

    def prepare(self, i):
        self.document(i)

    def start(self, mf):
        return mf

    def request(self, mf, i):
        doc = self.document(i)
        scenario = mf.cli.scenario_from_dict(doc)
        report = mf.cli.run_scenario(scenario)
        return mf.cli.render_report(report, "machine")

    def check(self, i, text):
        return verify.check_report(self.document(i)["rules"], text)

    def cross_check(self, i, text):
        return verify.cross_check_report(self.document(i), text)


class HyperScenarios(CliWorkload):
    name = "hyper_scenarios"
    # (labels, model kind, constraints, focal elements per source).  Two
    # sources span 10-30 focal elements; three stay at 10-12, which keeps
    # every document under 1500 product terms.
    strata = (
        (4, "free", 0, (12, 20)), (6, "hybrid", 2, (10, 11, 12)),
        (4, "hybrid", 1, (20, 30)), (6, "free", 0, (10, 10, 12)),
        (6, "free", 0, (15, 25)), (4, "hybrid", 3, (10, 11, 12)),
        (6, "hybrid", 1, (30, 30)), (4, "free", 0, (10, 11, 11)),
    )
    pool = 160
    check_count = 8

    def generate(self, shape, rng, stratum):
        n, kind, constraints, counts = stratum
        frame = HyperFrame(shape, n, constraints, 3)
        relabel = relabelling(rng, frame.labels)
        sources = [mass_table(rng, frame.focal_elements(shape, count, depth=3), relabel)
                   for count in counts]
        return {"frame": frame.labels,
                "model": {"kind": kind, "empty": [relabel(c) for c in frame.constraints]},
                "sources": sources, "rules": list(RULES)}


class TrackingState:
    __slots__ = ("mf", "model", "priors")

    def __init__(self, mf, model):
        self.mf = mf
        self.model = model
        self.priors = {}


class TrackingStream:
    """One observation fused into five running priors per request.

    Library path on one hybrid model (five labels, one exclusive pair) that
    lives for the whole phase.  An episode is a target: an initial
    assignment, then ``steps`` observations that tend to favour the target's
    label.  Priors restart with every episode, which keeps a run's per-step
    cost a fixed cycle instead of growing with the run's length.
    """

    name = "tracking_stream"
    episodes = 48
    steps = 12
    check_count = 12  # one full episode

    def __init__(self, seed):
        self.seed = seed
        self.frame = HyperFrame(random.Random(f"{self.name}:shape:model"), 5, 1, 2)
        self.relabel = relabelling(random.Random(f"{self.name}:{seed}:model"), self.frame.labels)
        self.labels = self.frame.labels
        self.constraints = [self.relabel(c) for c in self.frame.constraints]
        self.regions = verify.region_view(self.labels, self.constraints)
        self._episodes = {}

    def episode(self, e):
        """``(initial table, observation tables)`` of episode ``e``."""
        e %= self.episodes
        ep = self._episodes.get(e)
        if ep is None:
            shape = random.Random(f"{self.name}:shape:{e}")
            rng = random.Random(f"{self.name}:{self.seed}:{e}")
            target = shape.choice(self.frame.labels)
            initial = self.frame.focal_elements(shape, shape.randint(3, 8), depth=2)
            observations = [
                self.frame.focal_elements(shape, shape.randint(3, 8), depth=2, favour=target)
                for _ in range(self.steps)
            ]
            ep = self._episodes[e] = (mass_table(rng, initial, self.relabel),
                                      [mass_table(rng, obs, self.relabel) for obs in observations])
        return ep

    def prepare(self, i):
        self.episode(i // self.steps)

    def start(self, mf):
        return TrackingState(mf, mf.Model(mf.Frame(self.labels), mf.HYBRID, self.constraints))

    def request(self, state, i):
        mf, model = state.mf, state.model
        initial, observations = self.episode(i // self.steps)
        step = i % self.steps
        if step == 0:
            first = mf.validate_bba(mf.Bba(model, initial))
            state.priors = dict.fromkeys(TRACKING_RULES, first)
        obs = mf.validate_bba(mf.Bba(model, observations[step]))
        priors = dict(state.priors)
        results = {}
        for name in TRACKING_RULES:
            try:
                fused = mf.run_rule(name, mf.MassMatrix([priors[name], obs]), model)
            except mf.TotalConflictError:
                if name != "dempster":
                    raise
                fused = None  # expected under total conflict: restart from the observation
            results[name] = fused
            state.priors[name] = obs if fused is None else fused
        return priors, obs, results

    def check(self, i, output):
        return verify.check_tracking(self.regions, *output)

    def cross_check(self, i, output):
        return verify.cross_check_tracking(self.regions, *output)


WORKLOADS = {w.name: w for w in (HyperScenarios, TrackingStream)}
