"""Jump sequences as drawn text: the CLI contract on every command that
parses one (``admissible --jumps``, ``genus --jumps``, ``deform --target``)."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from wildram.cli import main

# the characters of rationals and of near misses: decimals, exponents,
# signs, digit separators, blanks and a non-ASCII digit
ALPHABET = "0123456789/,+-.e_ \u0663"

# numerals just inside and just past Python's 4300-digit integer-string
# limit; INSIDE / 2 is admissible at p = 3, m = 2, and its genus has more
# digits than Python prints
INSIDE = str(10**4299 - 5)
PAST = "1" + "0" * 4299 + "1"

COMMANDS = ["admissible", "genus", "deform"]

RATIONALS = st.one_of(
    st.integers(-2, 40).map(str),
    st.builds("{}/{}".format, st.integers(-2, 40), st.integers(0, 4)),
)

# free text over the alphabet, and comma lists mixing well-formed rationals
# with short free texts
JUMP_TEXTS = st.one_of(
    st.text(st.sampled_from(ALPHABET), max_size=24),
    st.lists(st.one_of(RATIONALS, st.text(st.sampled_from(ALPHABET), max_size=6)), max_size=4).map(
        ",".join
    ),
)


@settings(max_examples=200, deadline=1000, derandomize=True)
@given(JUMP_TEXTS, st.sampled_from(COMMANDS))
@example(INSIDE, "admissible")
@example(INSIDE, "genus")
@example(INSIDE, "deform")
@example(PAST, "admissible")
@example(PAST, "genus")
@example(PAST, "deform")
@example(f"{INSIDE}/2", "admissible")
@example(f"{INSIDE}/2", "genus")
@example(f"1/2,{INSIDE}/2", "genus")
@example(f"{INSIDE}/2", "deform")
@example("1/2, 7/2", "genus")
@example("5/2", "deform")
def test_jump_texts_keep_the_cli_contract(tmp_path_factory, text, command):
    # each text goes in twice: as --flag=text, which hands argparse the text
    # as the value even where it starts with '-', so every draw reaches the
    # jump parser; and as the separate items --flag, text, where argparse may
    # read a text such as '-e' as an option and refuse the command line
    if command == "deform":
        path = tmp_path_factory.getbasetemp() / "jump-texts-tower.txt"
        path.write_text("7 2 1 1\n0 0 0 1\n", encoding="ascii")
        head, flag = ["deform", "--spec", str(path)], "--target"
    elif command == "genus":
        head, flag = ["genus", "--order", "108", "--p", "3", "--m", "2"], "--jumps"
    else:
        head, flag = ["admissible", "--p", "3", "--m", "2"], "--jumps"
    for argv in (head + [f"{flag}={text}"], head + [flag, text]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert out == "" and err.startswith("error:") and err.count("\n") == 1
        else:
            assert json.loads(out)["command"] == command
