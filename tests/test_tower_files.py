"""Tower files as drawn data: round trips and the CLI contract on them."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from wildram.cli import main
from wildram.exactmath import FpPolynomial
from wildram.towers import TowerSpec, format_tower_spec, parse_tower_spec, validate_spec

PRIMES = (3, 5, 7, 11, 13)


@st.composite
def towers(draw, valid=None):
    """Small towers; valid ones put every term at a degree prime to p in
    the residue class, and the rest may have any coefficients and class."""
    if valid is None:
        valid = draw(st.booleans())
    p = draw(st.sampled_from(PRIMES))
    m = draw(st.integers(1, 8).filter(lambda m: m % p))
    r = draw(st.integers(1, 3))
    if not valid:
        layers = st.lists(st.integers(-p, 2 * p), min_size=1, max_size=9)
        polys = tuple(FpPolynomial(p, tuple(draw(layers))) for _ in range(r))
        rc = draw(st.integers(-m, 2 * m))
        return TowerSpec(p=p, m=m, r=r, x_polys=polys, residue_class=rc)
    rc = draw(st.sampled_from([j for j in range(m) if (p - 1) % (m // gcd(m, j)) == 0]))
    degrees = [d for d in range(1, 4 * m + 2) if d % m == rc and d % p]
    polys = []
    for i in range(r):
        coeffs = [0] * (degrees[-1] + 1)
        for d in draw(st.lists(st.sampled_from(degrees), min_size=i == 0, max_size=3)):
            coeffs[d] = draw(st.integers(1, p - 1))
        polys.append(FpPolynomial(p, tuple(coeffs)))
    return TowerSpec(p=p, m=m, r=r, x_polys=tuple(polys), residue_class=rc)


@settings(max_examples=100, deadline=1000, derandomize=True)
@given(st.booleans(), st.data())
def test_tower_files_round_trip(valid, data):
    t = data.draw(towers(valid))
    text = format_tower_spec(t)
    back = parse_tower_spec(text)
    assert back == t
    assert format_tower_spec(back) == text
    assert validate_spec(back) == validate_spec(t)
    if valid:
        assert validate_spec(back).valid


JUNK = st.sampled_from(["x", "1/2", "2.0", "0x3", "+1", "-", "1e3", "\u0663"])


@st.composite
def tower_texts(draw):
    """Small file texts: drawn towers, headers of small integers over
    layer lines of small coefficients with some junk, and any text."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=40))
    if kind <= 3:
        return format_tower_spec(draw(towers()))
    ints = st.integers(-2, 13).map(str)
    head = [draw(ints) for _ in range(4)]
    if kind == 4:  # a junk token, one token too many or too few
        head[draw(st.integers(0, 3))] = draw(JUNK)
        head = (head + ["1"])[: draw(st.integers(3, 5))]
    r = int(head[2]) if head[2].lstrip("-").isdigit() else 1
    lines = []
    for _ in range(max(0, r + draw(st.integers(-1, 1)))):
        tokens = draw(st.lists(ints, max_size=8))
        if draw(st.integers(0, 9)) == 0:
            tokens.append(draw(JUNK))
        lines.append(" ".join(tokens))
    return "\n".join([" ".join(head), *lines]) + draw(st.sampled_from(["", "\n", "\n \n"]))


@settings(max_examples=120, deadline=1000, derandomize=True)
@given(tower_texts(), st.sampled_from(["tower-predict", "tower-oracle"]))
def test_tower_commands_keep_the_cli_contract(tmp_path_factory, text, command):
    path = tmp_path_factory.getbasetemp() / "drawn-tower.txt"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, "--spec", str(path)])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
    else:
        assert json.loads(out)["command"] == command
