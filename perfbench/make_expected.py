"""Make ``expected.json``: the expected output of every job of every pool.

    python3 perfbench/make_expected.py

Run from the root of an fllp checkout, only when the benchmark's inputs
change; the file pins the outputs of the commit it was made at, so a later
change to the program cannot move them.  Every job runs through the command
line, and every output is cross-checked with a second engine before it is
stored:

* models: the default mode and ``--mode delta`` agree, ``iterations:`` aside;
* queries: the best nonzero grade per binding equals the least-model value
  of the ground instance.  A query that does not finish in time gets the
  least-model answer as its expected output;
* surfaces: the table equals one built from the least model of the
  compiled control program;
* domain, check and compile outputs are stored as printed.
"""
from __future__ import annotations

import json
import shutil
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402
from fllp.control import compile_control, format_surface, parse_control_file  # noqa: E402
from fllp.fixpoint import least_model  # noqa: E402
from fllp.lang import Atom, Const, Var, load_program, parse_query  # noqa: E402
from fllp.solver import ComputedAnswer, format_answer  # noqa: E402
from fllp import build_inverse_table, load_algebra_config, DEFAULT_ALGEBRA_CONFIG  # noqa: E402


def model_answers(job) -> str:
    """The query output the least model implies, in the CLI's answer format."""
    program, table = load_program(job.path, job.algebra or None)
    model, _ = least_model(program, table, mode="delta")
    domain = table.domain
    threshold = 1
    grade = dict(zip(job.flags, job.flags[1:])).get("--threshold")
    if grade is not None:
        threshold = max(1, int(grade[1:]) if grade[1:].isdigit() else domain.parse_literal(grade))
    texts = [job.query] if job.query else Path(job.stdin).read_text().split("\n")
    lines = []
    for text in filter(None, texts):
        query = parse_query(text, domain)
        assert isinstance(query, Atom), text
        for atom, value in model.items():
            if atom.pred != query.pred or value < threshold:
                continue
            env = {}
            if all(env.setdefault(q.name, a) == a if isinstance(q, Var) else q == a
                   for q, a in zip(query.args, atom.args)):
                names = [q.name for q in query.args if isinstance(q, Var)]
                bindings = tuple((n, env[n]) for n in dict.fromkeys(names))
                lines.append(format_answer(domain, ComputedAnswer(value, bindings)))
    return "\n".join(lines) + "\n"


def surface_from_model(job) -> str:
    _, domain, overrides = load_algebra_config(DEFAULT_ALGEBRA_CONFIG)
    table = build_inverse_table(domain, overrides)
    cs = parse_control_file(Path(job.path).read_text(), domain)
    model, _ = least_model(compile_control(cs), table, mode="delta")
    surface = {(x, y): model[Atom("good", (Const(x), Const(y)))]
               for x in cs.input_points for y in cs.output_points}
    return format_surface(cs, domain, surface)


def main() -> int:
    work = BENCH / "results" / "expected-work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = harness.child_env(ROOT)
    outputs: dict[str, str] = {}
    problems = []
    for workload in workloads.WORKLOADS:
        timeout = workloads.TIMEOUT_S[workload]
        for slot in workloads.slots(workload, ROOT):
            for make in slot.variants:
                by_key = defaultdict(list)
                for job in make(work):
                    out = work / "job.out"
                    *_, code = harness.spawn(job.argv(), env, out, job.stdin, timeout)
                    text = out.read_text() if code == 0 else None
                    by_key[job.key].append((job, code, text))
                for key, runs in by_key.items():
                    job = runs[0][0]
                    if job.cmd == "query":
                        want = harness.digest("query", model_answers(job))
                        for _, code, text in runs:
                            if text is not None and harness.digest("query", text) != want:
                                problems.append(f"{key}: top-down answers differ from the model")
                            if code != 0 and job.cls not in workloads.NON_TERMINATING:
                                problems.append(f"{key}: exit {code}")
                    else:
                        got = {harness.digest(job.cmd, t) for _, _, t in runs if t is not None}
                        if len(got) != 1 or any(t is None for _, _, t in runs):
                            codes = [c for _, c, _ in runs]
                            problems.append(f"{key}: runs disagree or failed, exits {codes}")
                            continue
                        want = got.pop()
                        if job.cmd == "surface" and \
                                harness.digest("surface", surface_from_model(job)) != want:
                            problems.append(f"{key}: surface differs from the least model")
                    outputs[key] = want
                print(f"{workload:8s} {slot.name:24s} {len(outputs):5d} outputs", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    record = {"commit": harness.commit(ROOT), "src_sha256": harness.source_digest(ROOT),
              "python": sys.version.split()[0], "outputs": dict(sorted(outputs.items()))}
    (BENCH / "expected.json").write_text(json.dumps(record, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
