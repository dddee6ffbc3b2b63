"""Randomly edited input files end in an exit code, never in a traceback.

Under a fixed seed, each mutant makes 1 to 3 single-character edits (an
insertion, a deletion or a replacement) to the README's demo file or to the
sl2 file, and four commands run on it in-process.  Whatever an edit does to
the file, ``cli.main`` must return 0, 1 or 2 and raise nothing.
"""

import contextlib
import io
import random
import re
from pathlib import Path

from albv.cli import main
from test_cli import SL2_TEXT

README = Path(__file__).resolve().parents[1] / "README.md"
SEED = 0
MUTANTS = 60  # per source file
ALPHABET = '0123456789xyz^*/+-()[]{}",=:. \nijkc'
COMMANDS = (
    ["validate"],
    ["cohomology", "--max-weight", "2"],
    ["homology", "--kb", "--max-weight", "2"],
    ["modular"],
)


def demo_text():
    section = README.read_text().split("## Command line", 1)[1]
    return re.search(r"```\n(\[algebroid\].*?)```", section, re.S).group(1)


def mutate(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(3)
        pos = rng.randrange(len(chars) + (kind == 0))
        if kind == 0:
            chars.insert(pos, rng.choice(ALPHABET))
        elif kind == 1:
            del chars[pos]
        else:
            chars[pos] = rng.choice(ALPHABET)
    return "".join(chars)


def test_mutated_files_exit_cleanly(tmp_path):
    rng = random.Random(SEED)
    codes = set()
    for name, text in (("demo", demo_text()), ("sl2", SL2_TEXT)):
        for n in range(MUTANTS):
            path = tmp_path / ("%s-%d.albv" % (name, n))
            mutant = mutate(rng, text)
            path.write_text(mutant)
            for command in COMMANDS:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    code = main([command[0], str(path), *command[1:]])
                assert code in (0, 1, 2), (command, mutant, out.getvalue())
                codes.add(code)
    # the edits both keep some files valid and break others
    assert {0, 2} <= codes
