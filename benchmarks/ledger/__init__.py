"""The WaveKey performance ledger: one benchmark harness for every
workload, metric and bound (see ``README.md`` beside this file)."""
