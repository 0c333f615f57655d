"""One ``mixed_rw`` answer-check worker: reads a pickled argument tuple
for ``workloads.check_mixed_range`` on standard input and writes the
pickled result to standard output.  ``workloads.run_check_workers``
starts it and waits for it."""

import pickle
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402

job = pickle.load(sys.stdin.buffer)
pickle.dump(workloads.check_mixed_range(*job), sys.stdout.buffer)
sys.stdout.buffer.flush()
