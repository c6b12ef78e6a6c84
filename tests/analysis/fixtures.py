"""Paired good/bad snippets for every REP rule.

Each rule has at least one BAD snippet the rule must fire on (with the
expected line) and a GOOD twin encoding the sanctioned idiom the rule
must stay silent on.  Snippets live as strings (not importable files)
so ``repro lint tests`` never trips over its own fixtures.
"""

# ---------------------------------------------------------------- REP001

REP001_BAD_NUMPY = """\
import numpy as np

def shuffled_split(items):
    np.random.shuffle(items)
    return items
"""
REP001_BAD_NUMPY_LINE = 4

REP001_BAD_NUMPY_SEED = """\
import numpy

def reseed():
    numpy.random.seed(0)
"""

REP001_BAD_STDLIB = """\
import random

def jitter():
    return random.random() * 0.5
"""

REP001_BAD_FROM_IMPORT = """\
from random import shuffle

def mix(items):
    shuffle(items)
"""

REP001_GOOD = """\
import random

import numpy as np

def shuffled_split(items, seed, repetition):
    rng = np.random.default_rng((seed, repetition))
    rng.shuffle(items)
    local = random.Random(seed)
    return items, local.random()
"""

# ---------------------------------------------------------------- REP002

REP002_BAD_OPEN = """\
def dump(path, text):
    with open(path, "w") as handle:
        handle.write(text)
"""
REP002_BAD_OPEN_LINE = 2

REP002_BAD_PATH_OPEN = """\
from pathlib import Path

def dump(path, rows):
    with Path(path).open("w", newline="") as handle:
        handle.write(rows)
"""

REP002_BAD_WRITE_TEXT = """\
from pathlib import Path

def dump(path, text):
    Path(path).write_text(text)
"""

REP002_BAD_APPEND_MODE = """\
def log(path, line):
    with open(path, mode="a") as handle:
        handle.write(line)
"""

REP002_GOOD = """\
from repro.ioutils import atomic_open_text, atomic_write_text

def load(path):
    with open(path) as handle:
        return handle.read()

def dump(path, text):
    atomic_write_text(path, text)

def dump_rows(path, rows):
    with atomic_open_text(path, newline="") as handle:
        handle.write(rows)
"""

# ---------------------------------------------------------------- REP003

REP003_BAD = """\
import time

def expired(started, budget):
    return time.time() - started > budget
"""
REP003_BAD_LINE = 4

REP003_GOOD = """\
import time

def expired(started, budget):
    return time.monotonic() - started > budget
"""

# ---------------------------------------------------------------- REP004

REP004_BAD = """\
def at_threshold(score):
    return score == 0.5
"""
REP004_BAD_LINE = 2

REP004_BAD_NEGATIVE = """\
def is_sentinel(value):
    return value != -1.0
"""

REP004_GOOD = """\
import math

def safe_ratio(num, denom):
    if denom == 0.0:
        return 0.0
    return num / denom

def at_threshold(score):
    return math.isclose(score, 0.5)
"""

# ---------------------------------------------------------------- REP005

REP005_BAD_PASS = """\
def load(path):
    try:
        return open(path).read()
    except Exception:
        pass
"""
REP005_BAD_PASS_LINE = 4

REP005_BAD_BARE = """\
def load(path):
    try:
        return open(path).read()
    except:
        return None
"""

REP005_GOOD = """\
import logging

logger = logging.getLogger(__name__)

def load(path):
    try:
        return open(path).read()
    except Exception:
        logger.exception("load failed")
        raise

def load_or_none(path):
    try:
        return open(path).read()
    except Exception as error:
        logger.warning("load failed: %s", error)
        return None

def isolate(run):
    last_error = None
    try:
        return run()
    except Exception as error:
        last_error = error
    return last_error
"""

# ---------------------------------------------------------------- REP006

REP006_BAD = """\
def _execute(item, journal):
    outcome = item * 2
    journal.append(outcome)
    return outcome

def run(pool, items, journal):
    return [pool.submit(_execute, item, journal) for item in items]
"""
REP006_BAD_LINE = 3

REP006_BAD_HELPER = """\
from repro.ioutils import fsync_append_line

def _worker_record(path, line):
    fsync_append_line(path, line)
"""

REP006_GOOD = """\
def _execute(item):
    return item * 2

def run(pool, items, journal):
    futures = [pool.submit(_execute, item) for item in items]
    for future in futures:
        journal.append(future.result())
"""

# ---------------------------------------------------------------- REP007

REP007_BAD = """\
def collect(item, bucket=[]):
    bucket.append(item)
    return bucket
"""
REP007_BAD_LINE = 1

REP007_BAD_DICT_CALL = """\
def tally(item, counts=dict()):
    counts[item] = counts.get(item, 0) + 1
    return counts
"""

REP007_GOOD = """\
def collect(item, bucket=None):
    if bucket is None:
        bucket = []
    bucket.append(item)
    return bucket

def label(item, suffix=""):
    return item + suffix
"""

# ---------------------------------------------------------------- REP008

REP008_BAD = """\
_CACHE: dict = {}

def _execute(item):
    return _CACHE.get(item)

def run(pool, items):
    for item in items:
        _CACHE[item] = prepare(item)
        pool.submit(_execute, item)
"""
REP008_BAD_LINE = 8

REP008_GOOD = """\
_CACHE: dict = {}

def _init_worker(payload):
    _CACHE.clear()
    _CACHE.update(payload)

def _execute(item):
    return _CACHE.get(item)

def run(pool_factory, items, payload):
    pool = pool_factory(initializer=_init_worker, initargs=(payload,))
    return [pool.submit(_execute, item) for item in items]
"""

# A module with no worker entry points may manage module state freely.
REP008_GOOD_NOT_WORKER = """\
_REGISTRY: dict = {}

def register(name, value):
    _REGISTRY[name] = value
"""


# ---------------------------------------------------------------- REP009

REP009_BAD = """\
from pathlib import Path

from repro.core.pipeline import FeatureStage

class LoggingStage(FeatureStage):
    name = "logging"
    level = "property"

    def compute(self, ctx, ref, values):
        row = self._row(values)
        Path("stage.log").write_text(str(ref))
        return row
"""
REP009_BAD_LINE = 11

REP009_BAD_IMPORT = """\
from repro.core.pipeline import FeatureStage
from repro.evaluation.parallel import run_grid

class GridAwareStage(FeatureStage):
    name = "grid_aware"
    level = "pair"
"""
REP009_BAD_IMPORT_LINE = 2

REP009_BAD_FROM_REPRO = """\
from repro import evaluation
from repro.core.pipeline import FeatureStage

class PeekingStage(FeatureStage):
    name = "peeking"
    level = "pair"
"""

REP009_GOOD = """\
import numpy as np

from repro.core.pipeline import FeatureStage

class TokenCountStage(FeatureStage):
    name = "token_count"
    level = "property"

    def width(self, dimension):
        return 1

    def compute(self, ctx, ref, values):
        return np.array([float(sum(len(v.split()) for v in values))])
"""

# Evaluation code may freely use the pipeline -- the ban is one-way.
REP009_GOOD_NO_STAGE = """\
from repro.evaluation import evaluate_matcher
from repro.core.pipeline import FeaturePipeline

def run(matcher, dataset):
    return evaluate_matcher(matcher, dataset)
"""


# ---------------------------------------------------------------- REP010

REP010_BAD_SLEEP = """\
import time

def follow(watcher):
    while True:
        watcher.poll()
        time.sleep(0.5)
"""
REP010_BAD_SLEEP_LINE = 6

REP010_BAD_SPIN = """\
def follow(watcher):
    while True:
        watcher.poll()
"""
REP010_BAD_SPIN_LINE = 2

REP010_GOOD = """\
def follow(watcher, stop_event, poll_interval):
    while True:
        if stop_event.is_set():
            break
        watcher.poll()
        stop_event.wait(poll_interval)
"""

# A conditioned loop needs no body-level stop check: the condition IS
# the stop check.
REP010_GOOD_CONDITIONED = """\
def follow(watcher, stop_event, poll_interval):
    while not stop_event.is_set():
        watcher.poll()
        stop_event.wait(poll_interval)
"""


# ---------------------------------------------------------------- REP011

REP011_BAD_QUEUE = """\
import queue

def build_backlog():
    return queue.Queue()
"""
REP011_BAD_QUEUE_LINE = 4

REP011_BAD_SIMPLEQUEUE = """\
import queue

def build_backlog():
    return queue.SimpleQueue()
"""
REP011_BAD_SIMPLEQUEUE_LINE = 4

REP011_BAD_DEQUE = """\
import collections

def build_buffer():
    return collections.deque()
"""
REP011_BAD_DEQUE_LINE = 4

REP011_BAD_BLOCKING_GET = """\
def take(work_queue):
    return work_queue.get()
"""
REP011_BAD_BLOCKING_GET_LINE = 2

REP011_BAD_BLOCKING_ACCEPT = """\
def acceptor(listener):
    while True:
        connection, _ = listener.accept()
        connection.close()
"""
REP011_BAD_BLOCKING_ACCEPT_LINE = 3

REP011_BAD_SLEEP = """\
import time

def drain(pending):
    while pending:
        time.sleep(0.5)
"""
REP011_BAD_SLEEP_LINE = 5

REP011_GOOD = """\
import queue

def build_backlog(limit):
    return queue.Queue(maxsize=limit)

def take(work_queue, deadline):
    return work_queue.get(timeout=deadline)

def handle(stop_event, cond, remaining, interval):
    with cond:
        cond.wait(min(remaining, interval))
    while not stop_event.is_set():
        stop_event.wait(interval)
"""

# A deque with an explicit bound is a legitimate ring buffer.
REP011_GOOD_BOUNDED_DEQUE = """\
import collections

def recent_errors(limit):
    return collections.deque(maxlen=limit)
"""


# ---------------------------------------------------------------- REP012

REP012_BAD_RMW = """\
import threading

class Stats:
    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0

    def record(self):
        self.total += 1

    def reset(self):
        with self._lock:
            self.total = 0

def start(stats):
    for _ in range(4):
        worker = threading.Thread(target=stats.record)
        worker.start()
"""
REP012_BAD_RMW_LINE = 9

REP012_BAD_INCONSISTENT = """\
import threading

class Gauge:
    def __init__(self):
        self._lock = threading.Lock()
        self.level = 0

    def set_level(self, value):
        self.level = value

    def clear(self):
        with self._lock:
            self.level = 0

def start(gauge):
    worker = threading.Thread(target=gauge.set_level, args=(1,))
    worker.start()
"""
REP012_BAD_INCONSISTENT_LINE = 9

REP012_GOOD = """\
import threading

class Stats:
    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0

    def record(self):
        with self._lock:
            self.total += 1

    def reset(self):
        with self._lock:
            self.total = 0

def start(stats):
    for _ in range(4):
        worker = threading.Thread(target=stats.record)
        worker.start()
"""

# A request handler reaches layer methods through a list held by a
# shared network.  The call graph follows ``layer.forward`` to every
# ``forward``; the one here caches its input on the layer, so concurrent
# requests overwrite each other's state (and the layer keeps the last
# request's matrix alive).
REP012_BAD_DISPATCH = """\
from http.server import BaseHTTPRequestHandler

class Dense:
    def __init__(self, weights):
        self.weights = weights
        self._inputs = None

    def forward(self, inputs):
        self._inputs = inputs
        return inputs @ self.weights

class Network:
    def __init__(self, layers):
        self.layers = list(layers)

    def predict(self, inputs):
        for layer in self.layers:
            inputs = layer.forward(inputs)
        return inputs

class Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        return self.server.network.predict(self.server.inputs)
"""
REP012_BAD_DISPATCH_LINE = 18

# The same dispatch through a pure method: nothing is written.
REP012_GOOD_DISPATCH = """\
from http.server import BaseHTTPRequestHandler

class Dense:
    def __init__(self, weights):
        self.weights = weights

    def infer(self, inputs):
        return inputs @ self.weights

class Network:
    def __init__(self, layers):
        self.layers = list(layers)

    def predict(self, inputs):
        for layer in self.layers:
            inputs = layer.infer(inputs)
        return inputs

class Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        return self.server.network.predict(self.server.inputs)
"""

# Without a thread root the writes never race: same class, no Thread().
REP012_GOOD_NO_ROOTS = """\
import threading

class Stats:
    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0

    def record(self):
        self.total += 1

    def reset(self):
        with self._lock:
            self.total = 0
"""


# ---------------------------------------------------------------- REP013

REP013_BAD = """\
import threading

class Transfer:
    def __init__(self):
        self._credit = threading.Lock()
        self._debit = threading.Lock()

    def deposit(self):
        with self._credit:
            with self._debit:
                return 1

    def withdraw(self):
        with self._debit:
            with self._credit:
                return 2
"""
REP013_BAD_LINE = 10

# The reversed edge comes through a call made under the outer lock, not
# a lexical ``with`` nesting -- the cycle needs the call graph to see.
REP013_BAD_TRANSITIVE = """\
import threading

class Ledger:
    def __init__(self):
        self._summary = threading.Lock()
        self._detail = threading.Lock()

    def _flush(self):
        with self._detail:
            return 1

    def summarize(self):
        with self._summary:
            return self._flush()

    def detail_report(self):
        with self._detail:
            with self._summary:
                return 2
"""
REP013_BAD_TRANSITIVE_LINE = 14

REP013_GOOD = """\
import threading

class Transfer:
    def __init__(self):
        self._credit = threading.Lock()
        self._debit = threading.Lock()

    def deposit(self):
        with self._credit:
            with self._debit:
                return 1

    def withdraw(self):
        with self._credit:
            with self._debit:
                return 2
"""


# ---------------------------------------------------------------- REP014

REP014_BAD_FSYNC = """\
import os
import threading

class Journal:
    def __init__(self):
        self._lock = threading.Lock()

    def append(self, handle, line):
        with self._lock:
            handle.write(line)
            os.fsync(handle.fileno())
"""
REP014_BAD_FSYNC_LINE = 11

REP014_BAD_SLEEP = """\
import threading
import time

class Poller:
    def __init__(self):
        self._lock = threading.Lock()

    def tick(self):
        with self._lock:
            time.sleep(0.1)
"""
REP014_BAD_SLEEP_LINE = 10

REP014_BAD_JOIN = """\
import threading

class Pool:
    def __init__(self):
        self._lock = threading.Lock()

    def drain(self, worker):
        with self._lock:
            worker.join()
"""
REP014_BAD_JOIN_LINE = 9

# Snapshot under the lock, do the I/O outside it.
REP014_GOOD = """\
import os
import threading

class Journal:
    def __init__(self):
        self._lock = threading.Lock()
        self._pending = []

    def append(self, handle, line):
        with self._lock:
            self._pending.append(line)
            pending = list(self._pending)
            self._pending.clear()
        handle.writelines(pending)
        os.fsync(handle.fileno())
"""

# ``Condition.wait`` on the lock you hold is the predicate-loop idiom,
# not a foreign blocking call.
REP014_GOOD_COND_WAIT = """\
import threading

class Box:
    def __init__(self):
        self._cond = threading.Condition()
        self.item = None

    def take(self):
        with self._cond:
            while self.item is None:
                self._cond.wait(0.1)
            item, self.item = self.item, None
            return item
"""


# ---------------------------------------------------------------- REP015

REP015_BAD = """\
import signal

def install(events):
    def _on_signal(signum, frame):
        events.append(signum)

    signal.signal(signal.SIGTERM, _on_signal)
"""
REP015_BAD_LINE = 5

REP015_BAD_METHOD = """\
import signal

class Service:
    def __init__(self):
        self.history = []

    def _on_signal(self, signum, frame):
        self.history.append(signum)

    def install(self):
        signal.signal(signal.SIGINT, self._on_signal)
"""
REP015_BAD_METHOD_LINE = 8

REP015_GOOD = """\
import signal

def install(stop_event, slot):
    def _on_signal(signum, frame):
        slot.value = signum
        stop_event.set()

    signal.signal(signal.SIGTERM, _on_signal)
"""

REP015_GOOD_SIG_IGN = """\
import signal

def mute():
    signal.signal(signal.SIGINT, signal.SIG_IGN)
"""

# ``os.write`` is on the async-signal-safe list (self-pipe wakeups).
REP015_GOOD_OS_WRITE = """\
import os
import signal

def install(wakeup_fd):
    def _on_signal(signum, frame):
        os.write(wakeup_fd, b"x")

    signal.signal(signal.SIGTERM, _on_signal)
"""


# ---------------------------------------------------------------- REP016

REP016_BAD_NESTED = """\
def all_pairs(dataset):
    pairs = []
    for left in dataset.properties():
        for right in dataset.properties():
            if left.source != right.source:
                pairs.append((left, right))
    return pairs
"""
REP016_BAD_NESTED_LINE = 5

REP016_BAD_TRIANGLE = """\
def cross(dataset):
    refs = dataset.properties()
    found = []
    for i, left in enumerate(refs):
        for right in refs[i + 1:]:
            if left.source != right.source:
                found.append((left, right))
    return found
"""
REP016_BAD_TRIANGLE_LINE = 6

REP016_BAD_COMPREHENSION = """\
def cross(dataset):
    refs = dataset.properties()
    return [
        (a, b)
        for a in refs
        for b in refs
        if a.source != b.source
    ]
"""
REP016_BAD_COMPREHENSION_LINE = 7

REP016_GOOD = """\
from repro.data.pairs import build_pairs

def candidates(dataset):
    return build_pairs(dataset).pairs

def cluster_pairs(members):
    # Quadratic only in one cluster's size, not the property universe.
    pairs = []
    for i, left in enumerate(members):
        for right in members[i + 1:]:
            if left.source != right.source:
                pairs.append((left, right))
    return pairs
"""


#: ``rule -> (bad snippet, expected line, good snippet)`` for the
#: one-per-rule parametrised test; extra variants are exercised
#: individually in test_rules.py.
PAIRS = {
    "REP001": (REP001_BAD_NUMPY, REP001_BAD_NUMPY_LINE, REP001_GOOD),
    "REP002": (REP002_BAD_OPEN, REP002_BAD_OPEN_LINE, REP002_GOOD),
    "REP003": (REP003_BAD, REP003_BAD_LINE, REP003_GOOD),
    "REP004": (REP004_BAD, REP004_BAD_LINE, REP004_GOOD),
    "REP005": (REP005_BAD_PASS, REP005_BAD_PASS_LINE, REP005_GOOD),
    "REP006": (REP006_BAD, REP006_BAD_LINE, REP006_GOOD),
    "REP007": (REP007_BAD, REP007_BAD_LINE, REP007_GOOD),
    "REP008": (REP008_BAD, REP008_BAD_LINE, REP008_GOOD),
    "REP009": (REP009_BAD, REP009_BAD_LINE, REP009_GOOD),
    "REP010": (REP010_BAD_SLEEP, REP010_BAD_SLEEP_LINE, REP010_GOOD),
    "REP011": (REP011_BAD_QUEUE, REP011_BAD_QUEUE_LINE, REP011_GOOD),
    "REP012": (REP012_BAD_RMW, REP012_BAD_RMW_LINE, REP012_GOOD),
    "REP013": (REP013_BAD, REP013_BAD_LINE, REP013_GOOD),
    "REP014": (REP014_BAD_FSYNC, REP014_BAD_FSYNC_LINE, REP014_GOOD),
    "REP015": (REP015_BAD, REP015_BAD_LINE, REP015_GOOD),
    "REP016": (REP016_BAD_NESTED, REP016_BAD_NESTED_LINE, REP016_GOOD),
}
