"""README.md stays true: its ```python blocks run, its `solve` problem
table and structure ids match `dynds.cli.PROBLEMS`, its `reduce`
reduction table matches `dynds.REDUCTIONS`, and its `bench` table matches
`dynds.cli.BENCHES`."""
import random
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text()
    blocks = [(text.count("\n", 0, m.start(1)) + 1, m.group(1))
              for m in re.finditer(r"^```python\n(.*?)^```", text,
                                   re.MULTILINE | re.DOTALL)]
    assert blocks
    for line, code in blocks:
        # pad so that a traceback names the README line
        exec(compile("\n" * (line - 1) + code, str(README), "exec"), {})


def _solve_section():
    text = README.read_text()
    return text[text.index("### solve"):text.index("### reduce")]


def test_readme_problem_table_matches_problems():
    from dynds.cli import PROBLEMS, gen_trace
    rows = [line for line in _solve_section().splitlines()
            if line.startswith("| `")]
    table = {}
    for row in rows:
        problem, header, ops = [re.findall(r"`([^`]*)`", cell)
                                for cell in row.strip("|").split("|")]
        table[problem[0]] = (tuple(header), [op.split()[0] for op in ops])
    assert list(table) == list(PROBLEMS)
    for pid, p in PROBLEMS.items():
        grammar = p.ops(gen_trace(pid, random.Random(0), 4))
        assert table[pid] == (p.header, list(p.calls)) == (p.header,
                                                           list(grammar))


def test_readme_structure_sentence_matches_solvers():
    from dynds.cli import PROBLEMS
    section = " ".join(_solve_section().split())
    sentence = section[section.index("Every problem accepts"):]
    sentence = sentence[:sentence.index(".")]
    common = set(re.findall(r"`--structure (\w+)`", sentence))
    extra = {pid: set(re.findall(r"`(\w+)`", ids)) for pid, ids in
             re.findall(r"([\w-]+) (?:also takes )?((?:`\w+`/?)+)", sentence)}
    assert set(extra) <= set(PROBLEMS)
    for pid, p in PROBLEMS.items():
        assert set(p.solvers) == common | extra.get(pid, set()), pid


def test_readme_reduction_table_matches_reductions():
    # a row may name `red_x_k2` / `_k3`, with one adapter list per id or
    # one list for both
    from dynds.reductions import REDUCTIONS
    text = README.read_text()
    section = text[text.index("### reduce"):text.index("### crosscheck")]
    table = {}
    for row in section.splitlines():
        if not row.startswith("| `red_"):
            continue
        ids, instance, adapters = [c.strip() for c in row.strip("|").split("|")]
        names = re.findall(r"`(\w+)`", ids)
        rids = names[:1] + [names[0].rsplit("_", 1)[0] + n for n in names[1:]]
        groups = adapters.split(" / ")
        groups *= len(rids) // len(groups)
        assert len(groups) == len(rids), row
        for rid, group in zip(rids, groups):
            table[rid] = (instance, set(re.findall(r"`(\w+)`", group)))
    assert list(table) == list(REDUCTIONS)
    for rid, cfg in REDUCTIONS.items():
        instance = (f"graph, k={cfg.arity}" if cfg.kind == "clique"
                    else "OuMv")
        assert table[rid] == (instance, set(cfg.adapters)), rid


def test_readme_bench_table_matches_benches():
    from dynds.cli import BENCHES
    text = README.read_text()
    section = text[text.index("### bench"):text.index("## Testing")]
    table = {}
    for row in section.splitlines():
        if row.startswith("| `"):
            structure, slope = [c.strip() for c in row.strip("|").split("|")]
            table[structure.strip("`")] = float(Fraction(slope.split()[0]))
    assert table == {sid: plan.target for sid, plan in BENCHES.items()}
    assert list(table) == list(BENCHES)
