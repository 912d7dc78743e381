"""Golden digests: every output file of the six acceptance runs, and of three
runs in which events coincide, byte for byte.

The preset digests were taken from the code before the trace layer and the
event loop were optimised, the coinciding-event ones from the code before
blocks left the event heap. A change that is meant to keep behaviour must
keep them; one that changes behaviour on purpose re-pins them and says why.
"""

import hashlib

import pytest

from edgebatch.harness import main

GOLDEN = {
    ("exp1",): {
        "metrics.csv": "5168a9120203d01c356b20edbd8acdb3b4f9f7be74550a3b9f6ba2bf639ef5e8",
        "series_delay.csv": "6ab8d89fb95e6876e395d59add73b7b0717f90a88d3756d19eeddf2471e5661e",
        "series_interval.csv": "631b900888bd03f5f881cd83e99b16e0dfab2b1b87bc74a98962d77c34ab812e",
        "series_rate.csv": "105ea92585e357e34d56ff1b10b451b6b963f4f48385a588b819dadd9a9059b8",
        "series_workload.csv": "f8ad6991dcc4b51bfb6d98ee3bf5496ca13fd1b152c11b637141376294391f8b",
        "summary.json": "155396aeacf4050c70d9c4b42d28ce9c54d1bf6aec8a387f4255c76ae1ae4eb9",
    },
    ("exp2",): {
        "metrics.csv": "3b0835849519320bc20da881ff98b381460daa82e22ec6a145be4795a8d993d6",
        "series_delay.csv": "e04d0166213530f4c68bf52559562744cad4eb42936f0b8ba264fb13b2077ccd",
        "series_interval.csv": "7a3ed343d4566255c5849bb0abe448be4383de487faf359929aaee60f14cd109",
        "series_rate.csv": "a4e693dd7eaf9cddea89614321bb8e74d9edc83b50a7728e28f85638d6da71e8",
        "series_workload.csv": "03146682a89cce0f65fc1598d477cedb500761667a7c9c8eed683450d87f9441",
        "summary.json": "3cd02a78bceadb9daa832481c9a0425bf1c1015656d597dc47836b310113cd89",
    },
    ("exp3",): {
        "metrics.csv": "8859e40cbab798d16e4f2516dcc965a4f17b431cc1916b94eba74864b064ce65",
        "series_delay.csv": "eb75f071eb5b4219c2489fba585b5e8a9969cb62e8a432f29c57aacf6c227548",
        "series_interval.csv": "9b065aa48a41f4912524a04674248d15a6e936a8b9ebb6e3cc03f8c0bd5df213",
        "series_rate.csv": "ddb26585f87c41f5b83fcc1d51823ddbf518d094ebfce93edfab9e8bf5cdd242",
        "series_workload.csv": "7be509879d8411ec82b7298ca5a509416391ff168f00052c67b303e07afe9fba",
        "summary.json": "d4351357e712fc1b08e91d34834c5fbdd32b6731f294a48b2678e30e2a2f47d0",
    },
    ("day",): {
        "metrics.csv": "a90a20a36c922b1fdf9498bcc38f8608bbd735d83d3f51012e02269bf8098eda",
        "series_delay.csv": "e73f0acf8976f763f297fdc4b047bcf9e20c9e45367228b0720cd6291f8162e3",
        "series_interval.csv": "6d935721c9a046cde41af8e9ac4a024c29422c255a4e19fe2e8308e4c631c9e5",
        "series_rate.csv": "c22fdf2d4f5cc31b7b7fef4302b4ae96689d6db37bba944b07fc188c7de9d401",
        "series_workload.csv": "fb3b8d99f770f484bc89b2bd07b849355937e824ee297dadc352178a978094d8",
        "summary.json": "32956ab4be296951ff13b5ae2d9556e675be986bef3a66ba919f1a9c9db87d69",
    },
    ("day-vanilla",): {
        "metrics.csv": "2e24d95b196f1f0006d9ebf3aad8dc623af66a62c0e54762717cbf6d46b040c7",
        "series_delay.csv": "e5ad15e24b7ac34750563650e49a6f4a1a074266a6564c1850cae24c3bce0e8d",
        "series_interval.csv": "ca0a9114630c98b037f7e39fab6e06887c967f4a4c2cce6215f91525f5a422a6",
        "series_rate.csv": "c22fdf2d4f5cc31b7b7fef4302b4ae96689d6db37bba944b07fc188c7de9d401",
        "series_workload.csv": "b0a04bbdd49f6839bec28342908e33ca42cbcf35f689ee7b1f1d6beeaa924b3e",
        "summary.json": "18c803c443a65d5743620f22e8bc6368d95697b0c9f1cf03f216ec52f50467e2",
    },
    ("exp3", "--disable-prediction"): {
        "metrics.csv": "2543049e1194c65c4af033d3667625bcdd9bb7128340b2b2a3c53fa06063975b",
        "series_delay.csv": "c57b3a1517344ee7cc1dbc93690b672f26027614f47394088c47e4947d80ec10",
        "series_interval.csv": "db61269c1813cbf0dfb61f338ed2fc4b58700e825bfbe56f05455510623acb99",
        "series_rate.csv": "2d6d73da5771ecde4a0677d8dd33160bfe84781cd45e6a3f04f9a47aec1cc24b",
        "series_workload.csv": "97f8588fbfa791ff427a5ae1f4175bfc951bc8f9231521e6d7f6fb7e2e9f76be",
        "summary.json": "8e1b0eb7f440b25f5b7fb19dd6ab6b3fe949f245f6ca488901516dbf67a4e176",
    },
}


def digests(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}


@pytest.mark.parametrize("args", list(GOLDEN), ids=" ".join)
def test_preset_outputs_match_golden_digests(args, tmp_path, capsys):
    assert main(["preset", *args, "--out", str(tmp_path)]) == 0
    assert digests(tmp_path) == GOLDEN[args]


# Runs in which events of different kinds fall on the same millisecond. They
# pin the order the engine gives coinciding events: a block that ends at t is
# sealed before anything else at t, and a job that costs nothing completes
# after the window closes, the control tick and the timer fire at its start.
TIE_CONFIGS = {
    # Each batch costs exactly two intervals, so every job completes on a
    # block boundary together with a timer fire, a control tick and a window
    # close. After the step to zero, empty batches cost nothing and drain at
    # the instant the backlog's last job completes.
    "ties-vanilla-drain": """\
engine.mode = vanilla
engine.duration = 90000
engine.initial_interval = 1000
engine.control_start = 0
controller.min_interval = 1000
controller.max_interval = 3000
controller.control_period = 1000
tracker.resample_interval = 1000
cost.fixed_overhead = 0
cost.per_record = 1
cost.per_block = 200
trace.kind = step
trace.before = 1000
trace.after = 0
trace.switch = 30000
""",
    # Control from t = 0, an initial interval of one block, and a rate step
    # in the middle of a block. Every cost term is a multiple of the block,
    # so jobs complete on block boundaries.
    "ties-adaptive-step": """\
engine.mode = adaptive
engine.duration = 120000
engine.initial_interval = 200
engine.control_start = 0
controller.min_interval = 200
controller.max_interval = 4000
controller.control_period = 2000
tracker.resample_interval = 2000
cost.fixed_overhead = 400
cost.per_record = 2
cost.per_block = 200
trace.kind = step
trace.before = 500
trace.after = 1500
trace.switch = 30100
""",
    # Jittered counts with integer cost terms: jobs complete on whole
    # milliseconds, some of them on block boundaries.
    "ties-adaptive-jitter": """\
engine.mode = adaptive
engine.duration = 120000
engine.initial_interval = 1000
engine.control_start = 0
engine.seed = 7
engine.jitter = 0.2
controller.min_interval = 400
controller.max_interval = 4000
controller.control_period = 2000
tracker.resample_interval = 2000
cost.fixed_overhead = 200
cost.per_record = 1
cost.per_block = 10
trace.kind = sinusoid
trace.base = 1000
trace.amplitude = 400
trace.period = 60000
""",
}

TIE_GOLDEN = {
    "ties-vanilla-drain": {
        "metrics.csv": "9c7905d0f3f1b4f79f848ba0c34c35641a66d74f0e43db74fb7df65b7761511a",
        "series_delay.csv": "375d45ce490de49904aea29bc93c58d6bc46a97cf550eb32e966b8ab7f13a718",
        "series_interval.csv": "4c91c52a7b40855205014665f8f3d11c650a0f47d3ba504938350823f87aad50",
        "series_rate.csv": "5d0eb5d1631af4e5b77c791529ad71c514972b77d0e54ecaa56839fd10f4f673",
        "series_workload.csv": "6293f7925a9bf04e730d61edbb8db82ca2e8ff577e3a4b507505fc784512e241",
        "summary.json": "0900cc1158f58b8d307b03892d62b227369324363a6188d71e578ce8612f8612",
    },
    "ties-adaptive-step": {
        "metrics.csv": "b1f6ace21db74e473d4bda786d6d364d90739e94648fc62e1b513cb5fcf8ac9d",
        "series_delay.csv": "f2a50db286a8867799430a32d2b238b8f18f4bfd3a1899491187783f344bf32c",
        "series_interval.csv": "c247b2fbb5626e41291b72127b53fc3ad4dfd5221969e23cc64368fb964da43c",
        "series_rate.csv": "110004b38f328a6fac59a6d986996ddc3fca3ba4bf797854ea691bc7d1c5c531",
        "series_workload.csv": "471fa776bee436eefd71fa391905b43f0b50ab4dc6c024b44115319f4372a681",
        "summary.json": "83fbb7aab6b04d23bb3047157f8149dd669ae06f8b599e849acad11f73580579",
    },
    "ties-adaptive-jitter": {
        "metrics.csv": "7f7e69f92536a1c5590ceaeafbbd83b64f05189d6fc553b5b70d8d553c1177cd",
        "series_delay.csv": "dcd6a19f42330dc36d44cf45676b1a9a7c42635028cd3a5f7ed47ce28a84e9bd",
        "series_interval.csv": "6d8948a6a9802410e060ccc88b18ee589ab8f9828a3b0026a03701bd4f853008",
        "series_rate.csv": "78da371d86dfaf046513100c3f9aa56f7cbce2d56c4fdf2a23c8d1f2342a53d3",
        "series_workload.csv": "287e50cd68caf980e4480a24f27f44afe27283e748ae149abb1168e2cf3f0eb4",
        "summary.json": "3a4de92cee09ac02068d92a795c6741aa5206c59e25e3254d5010e45d978f0e3",
    },
}


@pytest.mark.parametrize("name", list(TIE_CONFIGS))
def test_coinciding_events_match_golden_digests(name, tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text(TIE_CONFIGS[name])
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert digests(out) == TIE_GOLDEN[name]
