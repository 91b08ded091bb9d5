"""CLI output pinned byte for byte.

Each command runs on the corpus files of ``test_serialize_cli``; the SHA-256
of its stdout and its exit code must equal the recorded constants, in this
process and in fresh interpreters under another hash seed, with and without
``-O``.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

from ownlin.cli import main
from test_serialize_cli import (  # noqa: F401 - corpus_files is a fixture
    _client_file,
    _extension_file,
    _target_file,
    corpus_files,
)

# command name -> [SHA-256 of stdout, exit code]
GOLDEN = {
    "check-lin": ["1ec9e82bb52cdb8ea7beffafd16d2ef8779c5b3095403c66111b5b90a6f99d4a", 0],
    "check-lin-violated": ["11f42c27e8c8d7ca03cc2e22841f2b943d18c7181dd2ef14d71d37f6e82efc24", 1],
    "abstraction": ["2882e6951373ed1f9a92499f33a60d4c442b4bd5ad4a32426e0fdb7cebf4cd34", 0],
    "frame-check": ["ac5776f836b76c6992adafae5b60f50d838f600ba37171532a7224f3a2e35971", 0],
    "frame-check-scribbler": ["0142dd92df4cd59243fed0f3bde25c032cd858eff4463694e4bc343e29ca61a4", 2],
    "frame-check-json": ["72b2e734931f54049d34f65c469b1c2230b412c9fb7b20ee61132f8c3259a7c7", 0],
    "frame-check-scribbler-json": ["b640ad4cabc0c02b0ecd02798ed3a8af889ff0e1ff1e90ef770d20bf8cf60a58", 2],
    "dump-interf": ["d062c02700c56dcc0fdbd457ff2b892ebb23180366f012bf0f589d47cbc8a92f", 0],
    "rearrange": ["974b17d7b482c201771deff7007af5cfe9bbc024543cc19fc9aa5996a2ebd41d", 0],
    "abstraction-hypothesis-failed": ["ca01122b3aed33ccc4775cde8bdaa8c83161b472cf98df24421fac4cdb573903", 2],
    "abstraction-hypothesis-failed-json": ["33ba8a35c57e34a2fdfb937cf0a1d4313295083a5a8da21b7e468c7d9accaabb", 2],
}


def _commands(files, tmp_path) -> dict[str, list[str]]:
    ext = _extension_file(tmp_path)
    return {
        "check-lin": ["check-lin", files["mini_slow"], files["mini"]],
        "check-lin-violated": ["--json", "check-lin", files["stack_seq"], files["queue"]],
        "abstraction": ["abstraction", _client_file(tmp_path), files["mini_slow"],
                        files["mini"]],
        # the sequential stack does not linearize to the queue
        "abstraction-hypothesis-failed": ["abstraction", _client_file(tmp_path),
                                          files["stack_seq"], files["queue"]],
        "abstraction-hypothesis-failed-json": ["--json", "abstraction", _client_file(tmp_path),
                                               files["stack_seq"], files["queue"]],
        "frame-check": ["frame-check", files["mini_slow"], files["mini"], ext],
        # the scribbler's extra-state fold first fails on a 10-action trace
        "frame-check-scribbler": ["--max-trace", "10", "frame-check", files["scribbler"],
                                  files["mini"], ext],
        "frame-check-json": ["--json", "frame-check", files["mini_slow"], files["mini"], ext],
        "frame-check-scribbler-json": ["--json", "--max-trace", "10", "frame-check",
                                       files["scribbler"], files["mini"], ext],
        "dump-interf": ["dump-interf", files["mini"]],
        "rearrange": ["rearrange", files["mini"], _target_file(tmp_path), "--explain"],
    }


def digest(argv: list[str]) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return [hashlib.sha256(out.getvalue().encode()).hexdigest(), code]


def test_cli_output_is_pinned(corpus_files, tmp_path):
    commands = _commands(corpus_files, tmp_path)
    assert {name: digest(argv) for name, argv in commands.items()} == GOLDEN


def _fresh_digests(commands: dict[str, list[str]], *flags: str) -> dict:
    """The digests of ``commands`` in a fresh interpreter started with ``flags``,
    under hash seed 7."""
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONHASHSEED="7",
               PYTHONPATH=os.pathsep.join([os.path.join(here, "..", "src"), here]))
    script = ("import json, sys\n"
              "from test_cli_golden import digest\n"
              "commands = json.loads(sys.argv[1])\n"
              "print(json.dumps({n: digest(a) for n, a in commands.items()}))\n")
    proc = subprocess.run([sys.executable, *flags, "-c", script, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_output_does_not_depend_on_the_hash_seed(corpus_files, tmp_path):
    assert _fresh_digests(_commands(corpus_files, tmp_path)) == GOLDEN


def test_cli_output_does_not_depend_on_asserts(corpus_files, tmp_path):
    # ``-O`` strips ``assert``: every check the program makes must be a real error
    assert _fresh_digests(_commands(corpus_files, tmp_path), "-O") == GOLDEN
