"""Takes the host's changing speed out of the benchmark's times.

The benchmark runs on one core of a shared host whose speed changes up to
twofold within seconds.  Timed side by side in one process for 150 s on a
2-core VM, a fixed batch of `pairing` ops had an IQR/median of 0.39 over
0.5-s windows and the reference task below 0.38, but their ratio only 0.03:
both slow down together.  So every op time is scaled by how long the
reference task took while the op ran:

    scaled = measured * REFERENCE_S / (mean reference task time)

which is the time the op would have taken on a host where the reference
task takes REFERENCE_S.  The task imports nothing from arithlink, so no
change to the library changes it; a change that makes an op slower makes its
scaled time slower by the same share.

The reference task runs from a SIGPROF handler every SAMPLE_EVERY_S of CPU
time, inside long ops too, so a 1-s op is scaled by the speed during it and
not only at its ends; the handler's own time is taken out of the op's time.
"""

import signal
import statistics
from time import perf_counter

import oracle

# The reference task's time on the 2-core VM the benchmark was written on,
# at its faster moments; it only sets the scale of every scaled time.
REFERENCE_S = 0.003
# CPU time between two runs of the reference task: about 3% of a run.
SAMPLE_EVERY_S = 0.1

_WORD = [(f"t{1 + (7 * i) % 9}", 1 + i % 3) for i in range(60)]
_INDEX = tuple(f"t{1 + (5 * i) % 9}" for i in range(9))


def reference_task():
    """Fixed pure-Python work like arithlink's: dicts, ints, strs, lists."""
    table = {}
    acc = 0
    for i in range(3000):
        t = (i * 2654435761) % 65537
        table[t & 1023] = table.get(t & 1023, 0) + t
        acc += len(str(t))
    oracle.magnus_image(_WORD, _INDEX, 65537)
    return acc


def time_reference():
    t0 = perf_counter()
    reference_task()
    return perf_counter() - t0


def scaled_span(timed):
    """Call `timed`, which returns seconds it measured; returns them scaled.

    For spans of about a second run in another process, such as starting an
    interpreter: the reference task runs five times before and five times
    after, and the median of each five sets the scale.
    """
    before = statistics.median(time_reference() for _ in range(5))
    seconds = timed()
    after = statistics.median(time_reference() for _ in range(5))
    return seconds * 2 * REFERENCE_S / (before + after)


class HostSpeed:
    """Samples the reference task while ops run; scales their times after.

    Use as a context manager around the timed ops.  `start` before an op and
    `record` right after it note which samples fall in the op and how long
    the handler ran inside it.  After the block, `scaled` gives every
    recorded op's time scaled by the mean of the samples from the last one
    before it to the first one after it.  `speeds` gives REFERENCE_S over
    each sample, for the report.
    """

    def __init__(self):
        self._samples = []
        self._spent = 0.0
        self._records = []
        self._previous = None

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._sample()
        return False

    def _sample(self, *_):
        t0 = perf_counter()
        reference_task()
        t1 = perf_counter()
        self._samples.append(t1 - t0)
        # Counted to the end of the handler, so the list append is in too.
        self._spent += perf_counter() - t0

    def start(self):
        return len(self._samples), self._spent

    def record(self, started, seconds, payload):
        """Note one op's measured seconds, less the handler's time in them."""
        first, spent = started
        self._records.append((first, len(self._samples),
                              seconds - (self._spent - spent), payload))

    def scaled(self):
        """(payload, scaled seconds) of every recorded op, in order."""
        out = []
        for first, end, seconds, payload in self._records:
            around = self._samples[first - 1:end + 1]
            out.append((payload, seconds * REFERENCE_S
                        * len(around) / sum(around)))
        return out

    @property
    def speeds(self):
        return [REFERENCE_S / s for s in self._samples]
