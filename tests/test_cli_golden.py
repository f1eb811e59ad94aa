"""Byte-identical CLI output.

``cli_golden.json`` holds stdout and the exit code of ``arithline`` (and,
where a case carries it, stderr) for:

* the README examples and ``threshold``, ``divide`` and ``residual-norm`` on
  four compacts (the whole space, the star {2: 1}, the 5-adic segment
  [1, inf] and the archimedean segment [1/3, 1/2]), plus one refused call
  (exit 2), as the CLI printed them before the threshold search moved to
  integer comparisons;
* every call ``test_cli.py`` makes, each run from the default precision (a
  case with an ``env`` entry runs with those environment variables set);
* three usage errors (unknown subcommand, missing required flag, bad
  ``--op`` choice), recorded before the parser was built from one command
  table;
* seven precisions given by ``--bits`` or ARITHLINE_BITS: below 8 and
  malformed ones (exit 1, nothing on stdout) and 8 itself;
* malformed input, with its stderr: at least one malformed value per
  argument kind of ``cli.COMMANDS`` (bad JSON, a missing key, ``1/0``, an
  unknown ``kind``, a bad place or integer), a domain error raised while an
  argument is read (exit 2), ``hensel --f0 null`` and ``split-series``
  without ``--s``, recorded before the handlers took converted arguments;
* ``cousin-split`` with ``--s`` and ``--t``, which it never read and no
  longer takes (exit 1, usage error), recorded when they were removed.
* ``norm-annulus`` and ``invert-unit`` with a negative index on a disk
  (exit 2), recorded when that refusal got its one text.
* ``series-arith --op add`` of T^10 and 1 + O(T^5), recorded when a sum
  began to drop the indices at or past its modulus.
* ``binomial --p`` with p = 4, 0 and 1 (exit 1, "p is not prime"), recorded
  when ``binomial_root_series`` began to refuse a p that is not prime.
* ``shilov``, ``condition-rg --G [1, 0, 1]`` (m_U = 1) and ``base-norm --f
  1/2`` (exactly 1) on the star {2: 0}, recorded when ``shilov_base`` began
  to list a_0 for a branch cut at 0; and a ``divide-local`` whose G/u has a
  pole on the whole space (exit 2, NotInRingOfV), recorded when the radius
  scan stopped swallowing that error.
* ``norm-annulus`` of T^(10^8) at t = 3 and ``divide`` of T^(10^5) and
  T^(10^6) by a cubic (exit 2, CannotCertify), recorded when the radius
  powers of the annulus norms were charged to ``POW_BITS`` and dense division
  got the ``DIVISION_WORK`` budget; and ``divide`` of T^30000 by T - 3 at
  w = 40 (exit 2, CannotCertify under ``POW_BITS``), recorded when the
  radius power w^(deg F) began to be charged before the pseudo-division;
  and ``divide`` of T^30000 / 3 by T - 3 at w = 40 on [a_3^1, extreme] (exit
  2, NotInRingOfV), recorded before that charge, which must not precede the
  pole test.
* ``divide-local`` of F = 1 by G = T + T^2/3 modulo T^(2^200) at the central
  point (exit 0), recorded when the local fixed point stopped forming phi:
  its running sum of alpha(phi) must not be sized by the modulus.
* a central point with exponent 7 or inf (exit 1, "central point must have
  exponent 0"), and a place, a star cut, a ``mod`` and a group-table entry
  given as a float, and a place given as ``true`` (exit 1, "expected an
  integer"), recorded when ``jsonio`` stopped ignoring a central point's
  exponent and truncating a number where an integer is expected.
* ``cartan`` at place 2 on I, on 1 + 64T and 1 + 8T, on a 2x2 matrix with
  both signs of index, on 1 + T^-1/3 (exit 2, EpsilonTooLarge), and on
  1 + 81T mod T^5 at place 3; ``neumann`` on 1 + 8T^-1, on a nilpotent 2x2,
  on 1 + 2T mod T^3 and on the constant 5 (exit 2, NoConvergence), recorded
  before the exact and the pruned Neumann sums became one loop and the
  Cartan admissibility one test.
* ``hensel-factor`` with the seeds T + 1/2, T - 1/2 and T + 7/5 mod 5, and a
  series index "1_0" and a place " 3" (exit 1), recorded when a fractional
  seed was first reduced mod p exactly and an integer string first had to be
  an optional "-" and ASCII digits.
* ``eval-base``, ``base-norm`` over [e, e] and ``eval-line`` at a disk over
  a_p^e for 7/625 at a_5^(9/1000) (all three answer) and 59049 at
  a_3^(97/499) (all three exit 2 under ``POW_BITS``), recorded when a point
  became the one-point compact of the norms; integer flags and --bits given
  as "1_0", a Unicode digit or " 1", and rationals given as "1e2000000",
  "1_0", 0.5, "+12" and true (exit 1); and series ``hensel`` with a
  coefficient T^-1 (exit 1), recorded when the integer flags, the rationals
  and the coefficients of a series Hensel lift each got one rule.
* a JSON string where an array belongs (``eval-line --F '"13"'``, the rows
  of a group table) and a table that is an object around a string (exit 1);
  ``hensel-factor`` with p = 0, 1 and 4 and with N = 0 (exit 1); a closed
  point over a~_2 whose P, or whose F, has the coefficient 1/2 (exit 2, one
  text); ``hensel`` without --N or without --f0 (exit 1, BadInput); a table
  row that is an integer and an unknown standard name (exit 1), recorded when
  each error class began to carry its exit code and stream; and star cuts
  given as an object and ``--places`` given as a string (exit 1); and
  ``hensel-factor`` of G = 1 with no seed factor (exit 0, no factors), which
  raised IndexError before.
* ``hensel-factor`` with 1200 seeds 1 (exit 0; RecursionError, exit 3,
  before), with three seeds of which factors 1 and 2 share a root (exit 2)
  and with three seeds that lift (exit 0), recorded when factor lifting
  became one pass; and ``runge`` with T^-1 in --t-list at s = 0 (exit 2,
  NegativePowersOnDisk) and with T^70000 at t = 3 (exit 0; CannotCertify
  under ``POW_BITS`` before, from a norm nothing read), recorded when the
  approximation step stopped taking the norms of f t.
* ``group-mu`` on Z/6 with one 2x2 subsquare switched, a loop that is not
  associative (exit 1), on the standard Q8, S3 and D4, ``group-data`` on the
  standard D4 at i = 5, and ``group-data --table standard`` with no
  ``--name`` (exit 1, "None"), recorded when associativity became Light's
  test on a generating set and a standard table began to be built by name.

Usage text is wrapped at COLUMNS=80.  ``replay_golden.py`` replays the same
cases as subprocesses of an installed command.

A refactor of the kernel or of the CLI must reproduce them byte for byte.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from arithline.cli import main

CASES = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[f"{i:02d}-{c['argv'][0]}" for i, c in enumerate(CASES)])
def test_cli_output_is_unchanged(case, monkeypatch):
    monkeypatch.delenv("ARITHLINE_BITS", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    for name, value in case.get("env", {}).items():
        monkeypatch.setenv(name, value)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(case["argv"]))
    assert (code, out.getvalue()) == (case["exit"], case["stdout"])
    if "stderr" in case:
        assert err.getvalue() == case["stderr"]
