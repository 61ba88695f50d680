"""Span tracing of latinrect's public functions, from outside the package.

`Tracer.install` rebinds each traced name in every module that looks it
up at call time, so a call made through a module attribute
(`profiles.multinomial`) and one made through a name imported into
another module (`powered` inside `column_counts` and `formulas`) are
both caught.  `uninstall` puts the original objects back.

A span records its name, start, end, parent span, request id and
thread.  Pool workers of `formulas` have no open span of their own, so
their spans take the innermost open `formulas` span as parent.  Spans
stay in memory as flat arrays until `dump` writes them out.

A span's self time is its duration minus the union of its children's
intervals.  A child's interval runs from entering its wrapper to leaving
it, plus `Tracer.residual`: the call into the wrapper and the return
from it, which no timestamp inside the wrapper can see, measured once
per tracer by `calibrate`.  So the tracer's own bookkeeping for a child
is charged to the child, not to the parent's self time.  Children that
ran on their parent's thread are disjoint, so their durations are
summed as they close.  Only a `formulas` span can have children on
other threads, which may overlap; it keeps their intervals, and
`finish` computes the union after the pass, so that sorting them is not
charged to the span's own parent.  Times are wall clock per thread:
under pool workers a span also counts its waits for the interpreter
lock, so a layer's self time summed over threads can exceed the pass's
wall time.
"""

import itertools
import json
import threading
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute) pairs to rebind, keyed by span name.  A function
# reached through several modules appears once per module that looks
# it up by its own global name.
TRACED = {
    "formulas.reduced_count": [("formulas", "reduced_count")],
    "formulas.total_count": [("formulas", "total_count")],
    "formulas.total_count_direct": [("formulas", "total_count_direct")],
    "profiles.compositions": [("profiles", "compositions")],
    "profiles.multinomial": [("profiles", "multinomial")],
    "profiles.sign": [("profiles", "sign")],
    "column_counts.config_count": [("column_counts", "config_count")],
    "column_counts.choice_count": [("column_counts", "choice_count")],
    "column_counts.shift_profile": [("column_counts", "shift_profile")],
    "tallies.powered": [("tallies", "powered"), ("column_counts", "powered"), ("formulas", "powered")],
    "tallies.assembly_product": [("tallies", "assembly_product"), ("column_counts", "assembly_product")],
    "oracle.brute_force_count": [("oracle", "brute_force_count")],
    "oracle.lonely_hall_count": [("oracle", "lonely_hall_count")],
    "selftest.run_selftest": [("selftest", "run_selftest")],
}
FORMULA_SPANS = ("formulas.reduced_count", "formulas.total_count", "formulas.total_count_direct")
GENERATOR_SPANS = ("profiles.compositions",)
REQUEST_SPAN = "cli.main"

_DONE = object()  # a traced generator's end
_COLUMNS = (("sid", "q"), ("name", "H"), ("start", "d"), ("end", "d"),
            ("parent", "q"), ("request", "q"), ("self", "d"))


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        elif e > cur_hi:
            cur_hi = e
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def calibrate():
    """Seconds per child that a traced parent's self time keeps without correction.

    Times a parent that calls a no-op 2000 times through a wrapper,
    against the same loop over an unwrapped no-op, and takes the fastest
    of 7 tries of each.
    """
    calls = 2000
    tracer = Tracer(residual=0.0)
    child = tracer.wrap("profiles.sign", lambda: None)
    plain = lambda: None  # noqa: E731
    loop = lambda fn: [fn() for _ in range(calls)]  # noqa: E731
    parent = tracer.wrap("profiles.multinomial", loop)
    traced = untraced = float("inf")
    for _ in range(7):
        tracer.reset()
        parent(child)
        traced = min(traced, tracer.summary()["profiles.multinomial"][1])
        start = perf_counter()
        loop(plain)
        untraced = min(untraced, perf_counter() - start)
    return max(0.0, (traced - untraced) / calls)


class _Frame:
    __slots__ = ("sid", "child_time", "intervals")

    def __init__(self, sid, intervals=None):
        self.sid = sid
        self.child_time = 0.0  # summed durations of same-thread children
        self.intervals = intervals  # formulas spans: flat (start, end, ...) of every child


class _ThreadLog:
    """Spans closed on one thread, as parallel arrays, plus its open-span stack."""

    def __init__(self, thread):
        self.thread = thread
        self.stack = []
        self.cols = {name: array(code) for name, code in _COLUMNS}
        self.appenders = [self.cols[name].append for name, _ in _COLUMNS]
        self.pending = []  # (row, start, end, intervals) awaiting self time
        self.powered_bits = 0
        self.items = Counter()  # generator items yielded, per request


class Tracer:
    """Records spans for one process; install once, read, then uninstall."""

    def __init__(self, residual=None):
        self.residual = calibrate() if residual is None else residual
        self.names = [REQUEST_SPAN] + list(TRACED)
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self._ids = itertools.count()
        self._local = threading.local()
        self._logs = []
        self._logs_lock = threading.Lock()
        self._formula_frame = None
        self._saved = []
        self.request = -1
        self.tallies = []  # top-level OpTally objects created on the request thread
        self._request_thread = None

    # -- recording -------------------------------------------------------

    def _log(self):
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.get_ident())
            self._local.log = log
            with self._logs_lock:
                self._logs.append(log)
        return log

    def _close(self, log, frame, name_id, parent, t0, t1):
        """Record the span that ran over [t0, t1]."""
        sid, name, start, end, par, req, self_ = log.appenders
        if frame.intervals is not None:
            log.pending.append((len(log.cols["sid"]), t0, t1, frame.intervals))
        sid(frame.sid)
        name(name_id)
        start(t0)
        end(t1)
        par(parent.sid if parent is not None else -1)
        req(self.request)
        self_(t1 - t0 - frame.child_time)

    def _charge(self, parent, enter, leave):
        """Count a child's wrapper, entered at `enter` and left at `leave`, as child time."""
        if parent is None:
            return
        leave += self.residual
        if parent.intervals is not None:
            parent.intervals.extend((enter, leave))
        else:
            parent.child_time += leave - enter

    def finish(self):
        """Subtract each span's covered child time from its self time."""
        for log in self._logs:
            col = log.cols["self"]
            for row, t0, t1, kids in log.pending:
                col[row] = t1 - t0 - covered(zip(kids[0::2], kids[1::2]), t0, t1)
            log.pending.clear()

    def wrap(self, name, fn):
        """A traced stand-in for `fn`, recording one span per call."""
        name_id = self._name_id[name]
        is_formula = name in FORMULA_SPANS
        is_powered = name == "tallies.powered"

        def traced(*args, **kwargs):
            enter = perf_counter()
            log = self._log()
            stack = log.stack
            parent = stack[-1] if stack else self._formula_frame
            frame = _Frame(next(self._ids), array("d") if is_formula else None)
            stack.append(frame)
            if is_formula:
                outer, self._formula_frame = self._formula_frame, frame
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                t1 = perf_counter()
                if is_powered:
                    log.powered_bits += result.bit_length()
            except BaseException:
                t1 = perf_counter()
                raise
            finally:
                stack.pop()
                if is_formula:
                    self._formula_frame = outer
                self._close(log, frame, name_id, parent, t0, t1)
                self._charge(parent, enter, perf_counter())
            return result

        return traced

    def wrap_generator(self, name, fn):
        """Like `wrap`, but one span per item the generator yields."""
        name_id = self._name_id[name]

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            log = self._log()
            while True:
                enter = perf_counter()
                parent = log.stack[-1] if log.stack else self._formula_frame
                frame = _Frame(next(self._ids))
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    item = _DONE
                finally:
                    self._close(log, frame, name_id, parent, t0, perf_counter())
                if item is not _DONE:
                    log.items[self.request] += 1
                self._charge(parent, enter, perf_counter())
                if item is _DONE:
                    return
                yield item

        return traced

    def _tally_factory(self, cls):
        def make():
            tally = cls()
            if threading.get_ident() == self._request_thread:
                self.tallies.append(tally)
            return tally

        return make

    # -- installation ----------------------------------------------------

    def install(self, package):
        """Rebind every traced name in the modules of `package`."""
        self._request_thread = threading.get_ident()
        for name, sites in TRACED.items():
            module_name, attr = sites[0]
            original = getattr(getattr(package, module_name), attr)
            wrapper = self.wrap_generator if name in GENERATOR_SPANS else self.wrap
            traced = wrapper(name, original)
            for module_name, attr in sites:
                module = getattr(package, module_name)
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, traced)
        # the instrumented tallies a request creates on its own thread;
        # pool chunks make their own and merge them into these
        formulas = package.formulas
        self._saved.append((formulas, "OpTally", formulas.OpTally))
        formulas.OpTally = self._tally_factory(formulas.OpTally)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- reading ---------------------------------------------------------

    def summary(self):
        """Per span name: (calls, total self seconds)."""
        self.finish()
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for log in self._logs:
            for name, s in zip(log.cols["name"], log.cols["self"]):
                calls[name] += 1
                self_s[name] += s
        return {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}

    def powered_bits(self):
        """Total bit length of every value `powered` returned."""
        return sum(log.powered_bits for log in self._logs)

    def items(self):
        """Profiles yielded by `compositions`, per request id."""
        total = Counter()
        for log in self._logs:
            total.update(log.items)
        return total

    def reset(self):
        """Forget recorded spans and counters; installed wrappers stay."""
        for log in self._logs:
            for name, _ in _COLUMNS:
                del log.cols[name][:]
            log.pending.clear()
            log.powered_bits = 0
            log.items.clear()
        self.tallies = []
        self.request = -1

    def dump(self, path):
        """Write the recorded spans: one JSON header line, then raw columns.

        The header lists, per thread, its id and span count; each
        thread's columns follow in header order as native arrays.
        """
        self.finish()
        header = {
            "names": self.names,
            "columns": [list(c) for c in _COLUMNS],
            "threads": [[log.thread, len(log.cols["sid"])] for log in self._logs],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for log in self._logs:
                for name, _ in _COLUMNS:
                    log.cols[name].tofile(fh)


def load(path):
    """Read a `Tracer.dump` file back as a list of span dicts."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        spans = []
        for thread, count in header["threads"]:
            cols = {}
            for name, code in header["columns"]:
                cols[name] = array(code)
                cols[name].fromfile(fh, count)
            for i in range(count):
                span = {name: cols[name][i] for name, _ in header["columns"]}
                span["name"] = header["names"][span["name"]]
                span["thread"] = thread
                spans.append(span)
    return spans
