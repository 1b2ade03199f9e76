"""README.md stays true: its ```python blocks run, and its `solve` problem
table and structure ids match `dynds.cli.PROBLEMS`."""
import random
import re
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
