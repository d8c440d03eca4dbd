"""Online best-fit packing against naive one-sample-per-sequence batching.

A synthetic fine-tuning workload (98% short samples, 2% long ones) is
packed into 65,536-token sequences.  Best-fit keeps padding to a few
tokens per sequence without ever truncating a document; naive batching
wastes most of every sequence.
"""

import random

from corpusops.packing import PackInput, pack_online

rng = random.Random(1)
N_DOCS = 50_000
CAPACITY = 65_536


def workload():
    for i in range(N_DOCS):
        if rng.random() < 0.98:
            length = min(int(rng.lognormvariate(5.6, 1.4)) + 1, 8_191)
        else:
            length = rng.randint(8_192, CAPACITY)
        yield PackInput(id=f"d{i}", length=length)


sequences, stats = pack_online(workload(), CAPACITY, max_open_bins=64)
total_tokens = 0
for seq in sequences:
    total_tokens += CAPACITY - seq.padding

print(f"documents packed : {stats.docs_packed:,}")
print(f"sequences emitted: {stats.sequences:,}")
print(f"padding ratio    : {stats.padding_ratio:.2e}"
      f"  (~{stats.padding_tokens / stats.sequences:.1f} tokens per sequence)")
print(f"truncation ratio : {stats.truncation_ratio}")

naive_padding = 1 - total_tokens / (stats.docs_packed * CAPACITY)
print(f"\nnaive batching would pad {naive_padding:.1%} of every sequence")
