"""The README's examples print what the README shows.

Each ``$ strictpat …`` example of the command-line section, and the
``negate`` and ``eq`` examples, runs through ``cli.main`` in a directory
holding the files it names; its exit code and standard output must be the
README's.  Where the README shows an ``error:`` line, that is the standard
error and the standard output is empty.  The signature ``lam.sig``, the
program ``redx.prog`` and the set file ``split.set`` are taken from the
README's own blocks; the files it names without showing are written
here.  The Python block of the library section runs as it stands, and the
repr of each line that a ``# [...]`` comment follows is that comment."""

import re
import shlex
from pathlib import Path

import pytest

from strictpat.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")

FILES = {
    "a.sig": "a : type.\n",
    "ab.sig": "a : type. b : a. c : a ->u a.\n",
    "plain.sig": "exp : type.\nlam : (exp -> exp) -> exp.\n"
                 "app : exp -> exp -> exp.\n",
    "strict.sig": "a : type. b : a. c : a ->1 a ->1 a.\n",
    "whole.set": "ctx: x:a\ntype: a\nE[x^u]\n",
}


def block_after(heading: str) -> str:
    """The body of the first fenced block after the text heading."""
    return re.search(re.escape(heading) + r".*?```\w*\n(.*?)```", README,
                     re.S).group(1)


def shell_examples() -> list:
    """(argv, stdout lines, exit code) of each ``$ strictpat`` example in
    the README's sh blocks: the output runs to the next blank line, and a
    trailing ``# exit code N`` gives a code other than 0."""
    examples = []
    for body in re.findall(r"```sh\n(.*?)```", README, re.S):
        for chunk in re.split(r"\n\s*\n", body.strip()):
            first, *rest = chunk.split("\n")
            if not first.startswith("$ strictpat "):
                continue
            code, out = 0, []
            for line in rest:
                m = re.fullmatch(r"(.*?)\s+# exit code (\d+)", line)
                if m:
                    line, code = m.group(1), int(m.group(2))
                out.append(line)
            examples.append((shlex.split(first[2:])[1:], out, code))
    return examples


def prose_examples() -> list:
    """The ``negate`` example, whose output is the next block, and the
    ``eq`` example, whose output is quoted in the same sentence."""
    negate = re.search(r"`strictpat (negate [^`]*)` produces.*?```\n(.*?)```",
                       README, re.S)
    eq = re.search(r"`strictpat (eq [^`]*)` prints\s+`([^`]*)`", README)
    return [(shlex.split(negate.group(1)), negate.group(2).splitlines(), 0),
            (shlex.split(eq.group(1)), [eq.group(2)], 0)]


EXAMPLES = shell_examples() + prose_examples()


def test_the_readme_has_every_example():
    assert [argv[0] for argv, _, _ in EXAMPLES] == [
        "check", "not", "not", "meet", "canon", "member", "enum", "embed",
        "not", "negate", "eq"]


@pytest.mark.parametrize("argv, out, code", EXAMPLES,
                         ids=[f"{i}-{e[0][0]}" for i, e in enumerate(EXAMPLES)])
def test_readme_example(tmp_path, monkeypatch, capsys, argv, out, code):
    files = {**FILES, "lam.sig": block_after("**Signatures**"),
             "redx.prog": block_after("### Program files"),
             "split.set": block_after("### Set files")}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    got = capsys.readouterr()
    if out[0].startswith("error: "):
        assert (got.out, got.err.splitlines()) == ("", out)
    else:
        assert (got.out.splitlines(), got.err) == (out, "")


def test_library_usage_example():
    namespace, lines, checked = {}, [], 0
    for line in block_after("## Library usage").splitlines():
        if re.fullmatch(r"# \[.*\]", line):
            exec("\n".join(lines[:-1]), namespace)
            assert repr(eval(lines[-1], namespace)) == line[2:], lines[-1]
            lines, checked = [], checked + 1
        else:
            lines.append(line)
    exec("\n".join(lines), namespace)
    assert checked == 2
