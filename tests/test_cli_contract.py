"""The input contract of the command line, over drawn argument lists.

Every command is called in-process with flags drawn from small ranges that
reach past what ``RunConfig.validate`` accepts on both sides: non-finite
and negative fields, levels and sample counts below their minimum, empty
and out-of-range level lists.  Each command gets the flags it takes; one
draw in five adds a flag it does not take or a value that argparse
rejects.  Whatever the input, ``main`` returns an exit
code and raises nothing; a rejected input prints one line and writes
nothing.  No ``verify`` verdict is asserted: exit 3 is allowed, as long as
the report is written.  ``derandomize=True`` fixes the examples, so every
run checks the same argument lists.
"""

import io
import math
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import event, given, settings
from hypothesis import strategies as st

from landau_packets.cli import EXIT_ACCURACY, EXIT_CONFIG, EXIT_OK, EXIT_VERIFY, main

#: files a successful run of each command writes
OUTPUTS = {
    "trajectory": ("trajectory.csv", "closed_form.csv", "classical.csv", "manifest.json", "comparison.json"),
    "converge": ("converge.csv",),
    "verify": ("verify.json",),
    "oracle": ("oracle.csv",),
}


def optional(values):
    return st.one_of(st.none(), values)


def with_bad(values, *bad):
    """``values``, or one of ``bad`` in one draw of five."""
    return st.integers(0, 4).flatmap(lambda i: st.sampled_from(bad) if i == 0 else values)


def level_list(values):
    return st.lists(values, max_size=4).map(lambda items: ",".join(map(str, items)))


# h up to 10 keeps the cyclotron frequency, and with it the integrator's
# steps over a t_max of 50, small
SHARED = {
    "--h": with_bad(st.floats(1e-6, 10.0), 0.0, -1.0, math.nan, math.inf),
    "--anomaly": with_bad(st.floats(0.0, 1.0), 5.0, -0.5, math.nan),
    "--b-z": with_bad(st.floats(-100.0, 100.0), -0.0, math.nan, -math.inf, 1e200),
    "--n": st.integers(-2, 10**4),
    "--epsilon": st.sampled_from((-1, 1)),
}
TIME_GRID = {
    "--mode": st.sampled_from(("uniform-gap", "exact")),
    "--t-max": with_bad(st.floats(1e-3, 50.0), 0.0, -1.0, math.nan, math.inf, 1e308),
    "--samples": st.integers(-1, 512),
}
#: the flags each command takes besides SHARED
OWN = {
    "trajectory": {"--levels": st.integers(-1, 30), **TIME_GRID},
    "converge": {**TIME_GRID, "--n-list": level_list(st.integers(-1, 30))},
    "verify": {"--perturb": st.just(True), "--seed": with_bad(st.integers(0, 2**40), -1, -(2**40))},
    "oracle": {
        "--n-list": level_list(with_bad(st.integers(-1, 2000), 10**4, 10**4 + 1)),
        "--radial-s": st.integers(-2, 120),
    },
}
#: a value of each flag that its parser rejects
MISTYPED = {
    "--h": "x", "--anomaly": "", "--b-z": "1,5", "--n": "1.5", "--epsilon": "2",
    "--levels": "3.0", "--mode": "fast", "--t-max": "inf s", "--samples": "many",
    "--seed": "0x1", "--n-list": "3;10", "--radial-s": "-",
}


def foreign(command):
    """A flag ``command`` does not take, with a value it would parse."""
    taken = {*SHARED, *OWN[command]}
    flags = sorted({flag for own in OWN.values() for flag in own} - taken)
    return st.sampled_from(flags).map(lambda flag: flag if flag == "--perturb" else f"{flag}=3")


def mistyped(command):
    """A flag ``command`` takes, with a value its parser rejects."""
    flags = sorted(flag for flag in MISTYPED if flag in SHARED or flag in OWN[command])
    return st.sampled_from(flags).map(lambda flag: f"{flag}={MISTYPED[flag]}")


@st.composite
def argument_lists(draw):
    """(argv, whether argparse rejects it): the command's own flags, and in
    one draw of five a flag it does not take or a mistyped value."""
    command = draw(st.sampled_from(tuple(OUTPUTS)))
    argv = [command]
    for flag, values in {**SHARED, **OWN[command]}.items():
        value = draw(optional(values))
        if value is None:
            continue
        argv.append(flag if value is True else f"{flag}={value}")
    rejected = draw(st.integers(0, 4)) == 0
    if rejected:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.one_of(foreign(command), mistyped(command))))
    return argv, rejected


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(argument_lists())
def test_every_input_gets_an_exit_code(drawn):
    argv, rejected = drawn
    with tempfile.TemporaryDirectory() as root:
        out = os.path.join(root, "out")
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv, f"--output-dir={out}"])
        command = argv[0]
        event(f"{command} exit {code}")
        if rejected:
            assert code == EXIT_CONFIG
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_VERIFY, EXIT_ACCURACY)
        if code == EXIT_OK:
            assert stderr.getvalue() == ""
            assert sorted(os.listdir(out)) == sorted(OUTPUTS[command])
        elif code == EXIT_VERIFY:
            assert command == "verify"
            assert os.listdir(out) == ["verify.json"]
        else:
            assert len(stderr.getvalue().splitlines()) == 1, stderr.getvalue()
            assert not os.path.exists(out)
