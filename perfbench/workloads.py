"""The benchmark's workloads: which ``fllp`` jobs run, on which inputs.

A workload is a list of slots.  Each slot holds a fixed pool of input
variants and draws some of them per seed, so every seed gives the same
mix of job classes at the same input sizes, while the inputs themselves
(grades, random programs, queried atoms) change with the seed.  Expected
outputs exist for every variant of every pool, keyed by ``Job.key``,
which does not depend on the seed or on where the inputs are written.

Workloads, and why each was chosen:

* ``bottomup``: ``fllp model`` on transitive-closure chains and grids and on
  randprog-shaped recursive programs, each once with the default mode and
  once with ``--mode delta``.  Nearly all work is grounding and the least
  model fixpoint, and it is sparse: most ground rule instances never fire.
* ``topdown``: ``fllp query`` as REPL batches with ``--best --depth 0
  --threshold G`` on chains and grids, as one-shot ``-q`` jobs on the
  samples and on stratified random programs, and as default-option queries
  on a 3-edge recursive chain.  Nearly all work is the top-down solver; the
  default-option jobs do not terminate at the commit that made the expected
  outputs and are meant to count as failures until the solver terminates.
* ``wide``: large, shallow inputs for the front-end layers: ``domain
  --inverse`` at several hedge-string limits and on random algebras,
  ``check`` and ``compile`` on flat programs with 10,000 facts, and
  ``surface`` on scaled heater controls, whose least model is dense.
"""
from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
from fllp import build_inverse_table, load_algebra_config
from fllp.fixpoint import least_model
from fllp.lang import format_atom, load_program, pretty_print

WORKLOADS = ("bottomup", "topdown", "wide")

# Per-job timeout in seconds, per workload: several times the slowest job
# class of the workload when the expected outputs were made.
TIMEOUT_S = {"bottomup": 30.0, "topdown": 2.0, "wide": 15.0}

# Job classes that do not terminate at the commit the expected outputs were
# made (ROADMAP direction 2).  They stay in the workload and count as
# failures; the in-process traced run, which has no timeout, skips them.
NON_TERMINATING = ("query-default",)

POOL = 4  # variants per sized input
THRESHOLDS = ("v1", "probably true")  # a weak and a strong REPL threshold
# Seeds of gen.random_algebra whose domain has 173 values, so the domain
# jobs of every seed do comparable work.
RANDOM_ALGEBRA_SEEDS = (0, 3, 6, 14, 26, 42, 45, 50, 58, 62, 63, 80, 87, 99, 139, 141,
                        158, 166, 173, 182, 188, 194, 197, 240)


@dataclass(frozen=True)
class Job:
    """One ``python -m fllp`` process."""

    key: str  # expected-output key, the same for every seed
    cls: str  # job class
    cmd: str  # fllp subcommand
    path: str = ""  # program or control file
    algebra: str = ""
    query: str = ""
    stdin: str = ""  # REPL input file
    flags: tuple[str, ...] = ()

    def argv(self) -> list[str]:
        args = ["-m", "fllp", self.cmd]
        if self.path:
            args.append(self.path)
        if self.algebra:
            args += ["--algebra", self.algebra]
        if self.query:
            args += ["-q", self.query]
        return args + list(self.flags)


# A variant writes its input files into a directory and returns its jobs.
Variant = Callable[[Path], list]


@dataclass(frozen=True)
class Slot:
    name: str
    variants: tuple[Variant, ...]
    draw: int = 1


@functools.lru_cache(maxsize=None)
def _algebra(limit: int):
    return load_algebra_config(gen.default_config(limit))


def domain(limit: int = 2):
    return _algebra(limit)[1]


@functools.lru_cache(maxsize=None)
def inverse_table(limit: int = 2):
    _, dom, overrides = _algebra(limit)
    return build_inverse_table(dom, overrides)


def clear_caches() -> None:
    """Forget the loaded algebras, so the next set-up pays for them again."""
    _algebra.cache_clear()
    inverse_table.cache_clear()


def _write(d: Path, name: str, text: str) -> str:
    (d / name).write_text(text, encoding="utf-8")
    return str(d / name)


# -- bottomup -----------------------------------------------------------------

def _model_variant(name: str, make_program) -> Variant:
    def make(d: Path) -> list[Job]:
        path = _write(d, f"{name}.fllp", pretty_print(make_program(), domain()))
        cls = name.split("-")[0]
        return [
            Job(f"model/{name}", f"model-{cls}", "model", path),
            Job(f"model/{name}", f"model-{cls}-delta", "model", path,
                flags=("--mode", "delta")),
        ]
    return make


def bottomup() -> list[Slot]:
    slots = []
    for n in (10, 15, 20, 25):
        slots.append(Slot(f"chain{n}", tuple(
            _model_variant(f"chain{n}-v{v}", functools.partial(gen.graph, "chain", n, v, domain()))
            for v in range(POOL))))
    # Two 5x5 grids, so that job_tail_ms falls inside the group of
    # similar jobs just below the heaviest ones, not at its edge.
    for k, draw in ((4, 1), (5, 2)):
        slots.append(Slot(f"grid{k}", tuple(
            _model_variant(f"grid{k}-v{v}", functools.partial(gen.graph, "grid", k, v, domain()))
            for v in range(POOL)), draw))
    slots.append(Slot("randprog", tuple(
        _model_variant(f"randprog-v{v}",
                       functools.partial(gen.random_program, v, domain(), True))
        for v in range(40)), draw=10))
    return slots


# -- topdown ------------------------------------------------------------------

def _repl_variant(kind: str, size: int, v: int) -> Variant:
    name = f"{kind}{size}-v{v}"

    def make(d: Path) -> list[Job]:
        program = gen.graph(kind, size, v, domain())
        path = _write(d, f"{name}.fllp", pretty_print(program, domain()))
        labels = gen.graph_labels(kind, size, v)
        queries = "".join(f"path({node},Y{i})\n" for i, node in enumerate(labels))
        stdin = _write(d, f"{name}.queries", queries)
        return [
            Job(f"repl/{name}/{g}", f"repl-{kind}", "query", path, stdin=stdin,
                flags=("--best", "--depth", "0", "--threshold", g))
            for g in THRESHOLDS
        ]
    return make


def _oneshot_variant(key: str, cls: str, path_of, query: str) -> Variant:
    def make(d: Path) -> list[Job]:
        return [Job(key, cls, "query", path_of(d), query=query)]
    return make


def _strat_variant(v: int) -> Variant:
    """A one-shot query of a stratified random program, on an atom that is
    nonzero in its least model, so an empty answer shows as wrong."""
    def make(d: Path) -> list[Job]:
        program = gen.random_program(v, domain(), False)
        model, _ = least_model(program, inverse_table(), mode="delta")
        nonzero = sorted(format_atom(atom) for atom, value in model.items() if value > 0)
        query = random.Random(1000 + v).choice(nonzero)
        path = _write(d, f"strat-v{v}.fllp", pretty_print(program, domain()))
        return [Job(f"oneshot/strat-v{v}/{query}", "oneshot-strat", "query", path, query=query)]
    return make


def _sample_slot(path: Path) -> Slot:
    program, _ = load_program(path)
    rel = f"samples/{path.name}"
    return Slot(path.stem, tuple(
        _oneshot_variant(f"oneshot/{path.stem}/{q}", "oneshot-sample", lambda d: rel, q)
        for q in gen.ground_atoms(program, program.constants())))


def _default_variant(v: int) -> Variant:
    def make(d: Path) -> list[Job]:
        path = _write(d, f"chain3-v{v}.fllp",
                      pretty_print(gen.graph("chain", 3, v, domain()), domain()))
        queries = [f"path({node},Y)" for node in gen.graph_labels("chain", 3, v)[:2]]
        return [Job(f"default/chain3-v{v}/{q}", "query-default", "query", path, query=q)
                for q in queries]
    return make


def topdown(root: Path = Path(".")) -> list[Slot]:
    slots = []
    # Two 40-edge chains and three 5x5 grids, so that job_tail_ms falls in
    # the middle of a group of like jobs, not at a group's edge.
    for n, draw in ((10, 1), (20, 1), (30, 1), (40, 2)):
        variants = tuple(_repl_variant("chain", n, v) for v in range(POOL))
        slots.append(Slot(f"repl-chain{n}", variants, draw))
    for k, draw in ((4, 1), (5, 3)):
        variants = tuple(_repl_variant("grid", k, v) for v in range(POOL))
        slots.append(Slot(f"repl-grid{k}", variants, draw))
    for path in sorted((root / "samples").glob("*.fllp")):
        slots.append(_sample_slot(path))
    slots.append(Slot("strat", tuple(_strat_variant(v) for v in range(40)), draw=13))
    slots.append(Slot("default", tuple(_default_variant(v) for v in range(POOL))))
    return slots


# -- wide ---------------------------------------------------------------------

def _domain_variant(name: str, config) -> Variant:
    def make(d: Path) -> list[Job]:
        alg = _write(d, f"{name}.alg", config())
        return [Job(f"domain/{name}", "domain", "domain", algebra=alg, flags=("--inverse",))]
    return make


def _flat_variant(limit: int, v: int) -> Variant:
    name = f"flat{limit}-v{v}"

    def make(d: Path) -> list[Job]:
        program = gen.flat_program(10_000, 200, v, domain(limit))
        path = _write(d, f"{name}.fllp", pretty_print(program, domain(limit)))
        alg = _write(d, f"{name}.alg", gen.default_config(limit))
        return [
            Job(f"check/{name}", "check", "check", path, alg),
            Job(f"compile/{name}", "compile", "compile", path, alg, query="r0(X,Y)"),
        ]
    return make


def _surface_variant(k: int, v: int) -> Variant:
    name = f"heater{k}-v{v}"

    def make(d: Path) -> list[Job]:
        path = _write(d, f"{name}.ctl", gen.heater_control(k, v, domain()))
        return [Job(f"surface/{name}", "surface", "surface", path)]
    return make


def wide() -> list[Slot]:
    slots = [
        Slot(f"limit{lim}", (_domain_variant(f"limit{lim}",
                                             functools.partial(gen.default_config, lim)),))
        for lim in (2, 3, 4, 5)
    ]
    slots.append(Slot("ralg", tuple(
        _domain_variant(f"ralg-v{v}", lambda v=v: gen.config_text(gen.random_algebra(v)[0]))
        for v in RANDOM_ALGEBRA_SEEDS), draw=16))
    for limit in (2, 4):
        slots.append(Slot(f"flat{limit}", tuple(_flat_variant(limit, v) for v in range(3))))
    for k in (30, 40, 50, 60):
        slots.append(Slot(f"heater{k}", tuple(_surface_variant(k, v) for v in range(3))))
    return slots


def slots(workload: str, root: Path = Path(".")) -> list[Slot]:
    if workload == "topdown":
        return topdown(root)
    return {"bottomup": bottomup, "wide": wide}[workload]()


def build(workload: str, seed: int, out: Path, root: Path = Path(".")) -> list[Job]:
    """Write the seed's inputs into ``out`` and return its jobs in run order."""
    rng = random.Random(seed)
    jobs: list[Job] = []
    for slot in slots(workload, root):
        for make in rng.sample(slot.variants, slot.draw):
            jobs += make(out)
    rng.shuffle(jobs)
    return jobs
