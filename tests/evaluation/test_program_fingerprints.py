"""Program fingerprints: a regression net under the compile path.

Every registered workload compiled under every :class:`Strategy` must
produce exactly the program pinned here.  ``test_golden_cycles.py``
catches a change that moves a cycle count; this table also catches one
that reorders a schedule or renames a register without moving a cycle,
so a compile-path speedup that is meant to leave output alone must keep
every entry.  ``CB_PROFILE`` compiles against the workload's own block
counts, as :func:`~repro.evaluation.runner.compile_workload` profiles it.
Each entry is the first 16 hex digits of
:func:`~repro.evaluation.parallel.program_fingerprint`.

When a change is meant to move compiled output, re-record with:

    python - <<'PY'
    from repro.compiler.pipeline import CompileOptions
    from repro.evaluation.parallel import program_fingerprint
    from repro.evaluation.runner import compile_workload
    from repro.partition.strategies import Strategy
    from repro.workloads.registry import all_workloads
    for name, workload in sorted(all_workloads().items()):
        print('    "%s": {' % name)
        for strategy in Strategy:
            compiled = compile_workload(workload, CompileOptions(strategy=strategy))
            print('        "%s": "%s",' % (
                strategy.name, program_fingerprint(compiled.program)[:16]))
        print("    },")
    PY
"""

import pytest

from repro.compiler.pipeline import CompileOptions
from repro.evaluation.parallel import program_fingerprint
from repro.evaluation.runner import compile_workload
from repro.partition.strategies import Strategy
from repro.workloads.registry import all_workloads

#: workload -> Strategy name -> fingerprint prefix
FINGERPRINTS = {
    "G721MLdecode": {
        "SINGLE_BANK": "01d178519dd10e1d",
        "CB": "8b08304a8a6a2de5",
        "CB_PROFILE": "8b08304a8a6a2de5",
        "CB_DUP": "8b08304a8a6a2de5",
        "CB_DUP_SELECTIVE": "8b08304a8a6a2de5",
        "FULL_DUP": "606112079f48a289",
        "IDEAL": "f34a82393cdc510d",
        "ALTERNATING": "d0fefb30ee1778ac",
    },
    "G721MLencode": {
        "SINGLE_BANK": "e5bcb93617a30a23",
        "CB": "72668c72bd487889",
        "CB_PROFILE": "72668c72bd487889",
        "CB_DUP": "72668c72bd487889",
        "CB_DUP_SELECTIVE": "72668c72bd487889",
        "FULL_DUP": "eecef31875f8d7ee",
        "IDEAL": "3ce05eda79037f14",
        "ALTERNATING": "9cbb0e123b7c09f8",
    },
    "G721WFencode": {
        "SINGLE_BANK": "afd21de9601a4843",
        "CB": "ce52f57de23ee2cc",
        "CB_PROFILE": "ce52f57de23ee2cc",
        "CB_DUP": "ce52f57de23ee2cc",
        "CB_DUP_SELECTIVE": "ce52f57de23ee2cc",
        "FULL_DUP": "2306021ffb2daca8",
        "IDEAL": "22382ecfa015ef21",
        "ALTERNATING": "e50bf012d6583e93",
    },
    "V32encode": {
        "SINGLE_BANK": "74d45c1509b75a34",
        "CB": "a8cf385d11685e0b",
        "CB_PROFILE": "a8cf385d11685e0b",
        "CB_DUP": "ab804640fa1c6e0e",
        "CB_DUP_SELECTIVE": "ab804640fa1c6e0e",
        "FULL_DUP": "f1a96f1ff171795b",
        "IDEAL": "1053438680cb1791",
        "ALTERNATING": "9ebeca9cb404bd46",
    },
    "adpcm": {
        "SINGLE_BANK": "ca4b48d155ef9f87",
        "CB": "559108a935fefd33",
        "CB_PROFILE": "559108a935fefd33",
        "CB_DUP": "559108a935fefd33",
        "CB_DUP_SELECTIVE": "559108a935fefd33",
        "FULL_DUP": "a1a7296f31c294f3",
        "IDEAL": "29778326e2d65f2b",
        "ALTERNATING": "90be7cab1d9f5393",
    },
    "compress": {
        "SINGLE_BANK": "d6dfea4dd275850a",
        "CB": "130e5ed98eea2fe1",
        "CB_PROFILE": "130e5ed98eea2fe1",
        "CB_DUP": "130e5ed98eea2fe1",
        "CB_DUP_SELECTIVE": "130e5ed98eea2fe1",
        "FULL_DUP": "c7c00be8a6b4c621",
        "IDEAL": "982bd1af6737b5c8",
        "ALTERNATING": "29f557052d21f3b8",
    },
    "edge_detect": {
        "SINGLE_BANK": "06517af9d7478477",
        "CB": "ffc6828cbb04087d",
        "CB_PROFILE": "ffc6828cbb04087d",
        "CB_DUP": "ffc6828cbb04087d",
        "CB_DUP_SELECTIVE": "ffc6828cbb04087d",
        "FULL_DUP": "f8791c0ec1ba46ad",
        "IDEAL": "c89dccd43436258d",
        "ALTERNATING": "e70df6b090634d97",
    },
    "fft_1024": {
        "SINGLE_BANK": "acace07b6e81bea0",
        "CB": "7ea92707c2e90eb2",
        "CB_PROFILE": "7ea92707c2e90eb2",
        "CB_DUP": "091097961d206a61",
        "CB_DUP_SELECTIVE": "7ea92707c2e90eb2",
        "FULL_DUP": "352fc6154fc1cd04",
        "IDEAL": "581ed32021543450",
        "ALTERNATING": "7ea92707c2e90eb2",
    },
    "fft_256": {
        "SINGLE_BANK": "06081f4f8d1ac60c",
        "CB": "d660da9eedc7f484",
        "CB_PROFILE": "d660da9eedc7f484",
        "CB_DUP": "6a6111f3076ec4a6",
        "CB_DUP_SELECTIVE": "d660da9eedc7f484",
        "FULL_DUP": "4dd7d76690ab3277",
        "IDEAL": "665564bd65e22453",
        "ALTERNATING": "d660da9eedc7f484",
    },
    "fir_256_64": {
        "SINGLE_BANK": "767b431da90a6623",
        "CB": "5ba75b9be3dad616",
        "CB_PROFILE": "5ba75b9be3dad616",
        "CB_DUP": "5ba75b9be3dad616",
        "CB_DUP_SELECTIVE": "5ba75b9be3dad616",
        "FULL_DUP": "720b83e2aa0a02f3",
        "IDEAL": "16eca6234756883e",
        "ALTERNATING": "0856e7665c28a360",
    },
    "fir_32_1": {
        "SINGLE_BANK": "11eaf673a06cda70",
        "CB": "3477973970e792cd",
        "CB_PROFILE": "3477973970e792cd",
        "CB_DUP": "3477973970e792cd",
        "CB_DUP_SELECTIVE": "3477973970e792cd",
        "FULL_DUP": "696f973d17274d9d",
        "IDEAL": "a424e90fdd1f8b70",
        "ALTERNATING": "dd2e1609d7f59189",
    },
    "histogram": {
        "SINGLE_BANK": "0330433d98308ba7",
        "CB": "0330433d98308ba7",
        "CB_PROFILE": "0330433d98308ba7",
        "CB_DUP": "0330433d98308ba7",
        "CB_DUP_SELECTIVE": "0330433d98308ba7",
        "FULL_DUP": "f5995a696486a5f4",
        "IDEAL": "0330433d98308ba7",
        "ALTERNATING": "486a58cc7da976e5",
    },
    "iir_1_1": {
        "SINGLE_BANK": "5ba83eb3b6f0ea39",
        "CB": "d2cee3c24d7c6f59",
        "CB_PROFILE": "d2cee3c24d7c6f59",
        "CB_DUP": "9b9a6636b3fcbeb7",
        "CB_DUP_SELECTIVE": "d2cee3c24d7c6f59",
        "FULL_DUP": "f2db7b2e9bd15fb4",
        "IDEAL": "c78a02d7d9d97f12",
        "ALTERNATING": "7609e8dc99c82533",
    },
    "iir_4_64": {
        "SINGLE_BANK": "d58896f3bc41aa14",
        "CB": "0f024441b9b6bfc7",
        "CB_PROFILE": "0f024441b9b6bfc7",
        "CB_DUP": "ce90fd7c05c0106c",
        "CB_DUP_SELECTIVE": "0f024441b9b6bfc7",
        "FULL_DUP": "abb246db20506fac",
        "IDEAL": "b32a7d21d99a1023",
        "ALTERNATING": "a12b36f4429178a9",
    },
    "latnrm_32_64": {
        "SINGLE_BANK": "a4e7372bc6eacac1",
        "CB": "bee8213861b1c337",
        "CB_PROFILE": "bee8213861b1c337",
        "CB_DUP": "bee8213861b1c337",
        "CB_DUP_SELECTIVE": "bee8213861b1c337",
        "FULL_DUP": "9ef8beb937c235bf",
        "IDEAL": "d90ed38d7fa059bc",
        "ALTERNATING": "f4c3f3d2ff72f01e",
    },
    "latnrm_8_1": {
        "SINGLE_BANK": "7d78db2862a61d41",
        "CB": "74ea55d04fa1902d",
        "CB_PROFILE": "74ea55d04fa1902d",
        "CB_DUP": "74ea55d04fa1902d",
        "CB_DUP_SELECTIVE": "74ea55d04fa1902d",
        "FULL_DUP": "b688603654bb5d53",
        "IDEAL": "9158e8468c9f065a",
        "ALTERNATING": "6d0bd27273cc808e",
    },
    "lmsfir_32_64": {
        "SINGLE_BANK": "99ac30c80973349d",
        "CB": "66a7d7c9e50e4b21",
        "CB_PROFILE": "66a7d7c9e50e4b21",
        "CB_DUP": "66a7d7c9e50e4b21",
        "CB_DUP_SELECTIVE": "66a7d7c9e50e4b21",
        "FULL_DUP": "bdbb3db30a3827ab",
        "IDEAL": "3def83c22ea56a10",
        "ALTERNATING": "a4610f159465c6aa",
    },
    "lmsfir_8_1": {
        "SINGLE_BANK": "c0a7428eb61c806c",
        "CB": "ceba33546588d2f1",
        "CB_PROFILE": "ceba33546588d2f1",
        "CB_DUP": "ceba33546588d2f1",
        "CB_DUP_SELECTIVE": "ceba33546588d2f1",
        "FULL_DUP": "67d3b6602fa42b9c",
        "IDEAL": "e70934545eabff40",
        "ALTERNATING": "bdf254a04357eda2",
    },
    "lpc": {
        "SINGLE_BANK": "ce98f83ebe6f7c4d",
        "CB": "fd0677e2aadefd85",
        "CB_PROFILE": "fd0677e2aadefd85",
        "CB_DUP": "d2489bc980080795",
        "CB_DUP_SELECTIVE": "4deefe7dd5a2437b",
        "FULL_DUP": "4189f6207d62f376",
        "IDEAL": "b396f35ec542fef4",
        "ALTERNATING": "d6e8ff59c6c62586",
    },
    "mult_10_10": {
        "SINGLE_BANK": "a072e74380ee298b",
        "CB": "8cd0638e3d42bab8",
        "CB_PROFILE": "8cd0638e3d42bab8",
        "CB_DUP": "8cd0638e3d42bab8",
        "CB_DUP_SELECTIVE": "8cd0638e3d42bab8",
        "FULL_DUP": "859452d2e37aec15",
        "IDEAL": "52d481f8bf197910",
        "ALTERNATING": "8bab08b25a024238",
    },
    "mult_4_4": {
        "SINGLE_BANK": "a2d91c0ad9f338af",
        "CB": "d5363b125b760fb0",
        "CB_PROFILE": "d5363b125b760fb0",
        "CB_DUP": "d5363b125b760fb0",
        "CB_DUP_SELECTIVE": "d5363b125b760fb0",
        "FULL_DUP": "34a1dffc575d0c20",
        "IDEAL": "c8f09c4562a45310",
        "ALTERNATING": "de72d8c4aac5210e",
    },
    "spectral": {
        "SINGLE_BANK": "371df96b5fd40c5a",
        "CB": "ae08d2f0f172e591",
        "CB_PROFILE": "ae08d2f0f172e591",
        "CB_DUP": "7d354748d6920403",
        "CB_DUP_SELECTIVE": "ae08d2f0f172e591",
        "FULL_DUP": "67dfdcb356101ecf",
        "IDEAL": "a1b13867aa332870",
        "ALTERNATING": "0d9c916b80b4c843",
    },
    "trellis": {
        "SINGLE_BANK": "df436bca57815386",
        "CB": "04be20ab53c2f41b",
        "CB_PROFILE": "0ccf20de336e6ee2",
        "CB_DUP": "e30a4a6b9a6c8be0",
        "CB_DUP_SELECTIVE": "e30a4a6b9a6c8be0",
        "FULL_DUP": "780c3585a16e0574",
        "IDEAL": "0f5c98fddaa07911",
        "ALTERNATING": "5b196d03972cafaf",
    },
}


def test_table_covers_every_workload_and_strategy():
    assert set(FINGERPRINTS) == set(all_workloads())
    for name, prints in FINGERPRINTS.items():
        assert list(prints) == [strategy.name for strategy in Strategy], name


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_program_fingerprints(name):
    workload = all_workloads()[name]
    got = {
        strategy.name: program_fingerprint(
            compile_workload(workload, CompileOptions(strategy=strategy)).program
        )[:16]
        for strategy in Strategy
    }
    assert got == FINGERPRINTS[name]
