"""Random edits of the exp2 preset's config, run through the CLI.

Every config that can reach ``run`` must either be rejected up front, with
exit 2 (malformed) or 1 (semantically invalid) and one stderr line, or run
to completion with exit 0. It must never end in a traceback. Each example
starts from exp2 with one trace kind and a duration of at most 120 s, so
that a run is short, then sets or deletes up to four keys of
``harness.CONFIG_KEYS``.
"""

import contextlib
import io
import tempfile
from importlib import resources
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from edgebatch import harness

EXP2 = harness.parse_config_text(
    resources.files("edgebatch").joinpath("presets/exp2.conf").read_text())
# Valid keys of each trace kind, as a starting point for the edits.
TRACE_KEYS = {
    "constant": {"trace.rate": "1000"},
    "step": {"trace.before": "1000", "trace.after": "2000", "trace.switch": "60000"},
    "sinusoid": {"trace.base": "1000", "trace.amplitude": "400", "trace.period": "90000"},
    "csv": {"trace.file": "builtin:day", "trace.mode": "count", "trace.time_scale": "1/60",
            "trace.rate_scale": "21.6"},
}
# Edge values for any key: zero, negatives, the float-exact limit and one
# past it, the float range, NaN, infinities, division by zero, a subnormal,
# text, and the texts some keys accept.
VALUES = ["0", "-1", str(2**53), str(2**53 + 1), "1e308", "-1e308", "nan", "inf", "-inf",
          "1/0", "0/0", "1e-320", "text", "vanilla", "off", "rate", "builtin:day",
          *TRACE_KEYS]
EDITS = st.lists(st.tuples(st.sampled_from(sorted(harness.CONFIG_KEYS)),
                           st.one_of(st.none(), st.sampled_from(VALUES))),  # None: delete
                 max_size=4)


@st.composite
def configs(draw) -> dict[str, str]:
    kind = draw(st.sampled_from(sorted(TRACE_KEYS)))
    cfg = {key: value for key, value in EXP2.items() if not key.startswith("trace.")}
    cfg |= TRACE_KEYS[kind] | {"trace.kind": kind,
                               "engine.duration": str(draw(st.integers(1, 120_000)))}
    for key, value in draw(EDITS):
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    return cfg


@settings(max_examples=500, deadline=None)
@given(configs())
def test_cli_run_exits_0_1_or_2_with_one_stderr_line_on_error(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.conf"
        path.write_text("".join(f"{key} = {value}\n" for key, value in cfg.items()))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = harness.main(["run", "--config", str(path), "--out", str(Path(tmp) / "out")])
    err = err.getvalue()
    event(f"exit {code}")
    assert code in (0, 1, 2)
    assert err.count("\n") == (code != 0) and "Traceback" not in err
