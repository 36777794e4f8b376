"""Print SHA-256 digests of synthetic traces' encoded instruction columns.

One entry per profile x salt x length, one digest per column, each over
the column's little-endian artifact payload.  ``tests/test_workload.py``
asserts the committed ``tests/data/generator_digests.json``, which this
script wrote before generation moved to direct column emission::

    PYTHONPATH=src python scripts/generator_digests.py > tests/data/generator_digests.json

Regenerate only together with a ``GENERATOR_VERSION`` bump.
"""

import hashlib
import json

from repro.workload import benchmark_names, generate_trace
from repro.workload.artifact import INSTR_SECTIONS, list_to_bytes
from repro.workload.encode import encode_trace

SALTS = (0, 5)
LENGTHS = (1, 37, 20_000)

digests = {}
for name in benchmark_names():
    for salt in SALTS:
        for length in LENGTHS:
            trace = generate_trace(name, length, salt)
            encoded = encode_trace(trace)
            encoded.ensure_instr_arrays(trace)
            digests[f"{name}/{salt}/{length}"] = {
                column: hashlib.sha256(
                    list_to_bytes(getattr(encoded, column), dtype)
                ).hexdigest()
                for column, dtype in INSTR_SECTIONS
            }
print(json.dumps(digests, indent=1, sort_keys=True))
