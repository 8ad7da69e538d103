package main

import (
	"bytes"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dyncq/internal/server"
)

// serverWorkers is the server's Workspace worker count: the core count
// of the machine the benchmark is calibrated on.
const serverWorkers = 2

// setupRuns is how many times a run sets a server up; setup_s is their
// median and the last server is the one measured.
const setupRuns = 7

var clock = time.Now()

// now is the benchmark's monotonic clock in nanoseconds.
func now() int64 { return int64(time.Since(clock)) }

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// bench drives one in-process server over two loopback connections:
// w carries the writer's commits, r the workload's reader or
// subscriber.
type bench struct {
	sp     *spec
	in     *inputs
	srv    *server.Server
	served chan error
	w, r   *conn
	tr     *tracer // nil when untraced

	v0     uint64   // version once set up
	ver    []uint64 // expected version after commit i
	sendAt []int64  // when commit i was sent
	next   int      // commits sent so far

	// Subscriber state (readSubscribe): the sync snapshots and every delta
	// frame received afterwards, kept raw and replayed by the output check.
	snap    [2][]byte
	snapVer [2]uint64
	deltas  []deltaRec
	subLog  []byte
	resyncs [2]int
}

type deltaRec struct {
	q        int
	version  uint64
	recv     int64
	from, to int // subLog[from:to] is the frame
}

func newBench(sp *spec, in *inputs) *bench {
	return &bench{sp: sp, in: in, sendAt: make([]int64, in.commits())}
}

// start brings up an empty server and makes it ready: the initial
// database loaded as begin…commit batches, both queries registered, and
// the first count answered. It returns the wall and the process CPU time
// that took.
func (b *bench) start() (wall, cpu time.Duration, err error) {
	b.srv = server.New(server.Options{Workers: serverWorkers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, fmt.Errorf("listen: %w", err)
	}
	b.served = make(chan error, 1)
	go func() { b.served <- b.srv.Serve(ln) }()
	addr := ln.Addr().String()

	t0, c0 := time.Now(), cpuTime()
	if b.w, err = dial(addr); err != nil {
		return 0, 0, err
	}
	for _, chunk := range b.in.load {
		b.w.deadline()
		if err := b.w.send(chunk); err != nil {
			return 0, 0, err
		}
		for _, want := range []string{"ok begin", "ok committed"} {
			l, err := b.w.line()
			if err != nil || !bytes.HasPrefix(l, []byte(want)) {
				return 0, 0, fmt.Errorf("loading: want %q, got %q (%v)", want, l, err)
			}
		}
	}
	for i, text := range []string{queryQ, queryP} {
		l, err := b.w.call("register " + queryNames[i] + " " + text)
		if err != nil {
			return 0, 0, err
		}
		if want := []string{"core", "ivm"}[i]; strField(l, 3) != want {
			return 0, 0, fmt.Errorf("query %s routed as %q, want %s", queryNames[i], l, want)
		}
	}
	l, err := b.w.call("count q")
	if err != nil {
		return 0, 0, err
	}
	wall, cpu = time.Since(t0), cpuTime()-c0

	n, _ := uintField([]byte(l), 3)
	v, ok := uintField([]byte(l), 4)
	if !ok || int(n) != b.in.nInit[0] {
		return 0, 0, fmt.Errorf("first count: %q, want %d tuples", l, b.in.nInit[0])
	}
	b.v0 = v
	b.ver = make([]uint64, b.in.commits())
	for i := range b.ver {
		v += uint64(min(b.in.net[i], 1))
		b.ver[i] = v
	}
	if b.r, err = dial(addr); err != nil {
		return 0, 0, err
	}
	return wall, cpu, nil
}

// stop closes both connections and the server and waits for it to end.
func (b *bench) stop() {
	for _, c := range []*conn{b.w, b.r} {
		if c != nil {
			c.close()
		}
	}
	b.srv.Close()
	if b.served != nil {
		<-b.served
	}
}

// subscribe subscribes the reader connection to both queries and syncs
// it with one enumerate each. No commit runs meanwhile, so no delta
// frame can arrive before the snapshots.
func (b *bench) subscribe() error {
	for i, name := range queryNames {
		if _, err := b.r.call("subscribe " + name); err != nil {
			return err
		}
		frame, v, err := b.r.enumerate(name)
		if err != nil {
			return err
		}
		b.snap[i], b.snapVer[i] = frame, v
	}
	return nil
}

// enumerate sends `enumerate name` and returns the whole frame and its
// version.
func (c *conn) enumerate(name string) ([]byte, uint64, error) {
	c.deadline()
	if err := c.send([]byte("enumerate " + name + "\n")); err != nil {
		return nil, 0, err
	}
	l, err := c.line()
	if err != nil {
		return nil, 0, err
	}
	if !bytes.HasPrefix(l, []byte("snapshot "+name+" ")) {
		return nil, 0, fmt.Errorf("enumerate %s: %q", name, l)
	}
	v, _ := uintField(l, 3)
	frame := append(append([]byte(nil), l...), '\n')
	frame, err = c.frame(frame)
	return frame, v, err
}

// window is one measured stretch of a run.
type window struct {
	from, to     int   // commits [from,to) were sent in it
	start, wEnd  int64 // start, and when the writer stopped
	rEnd         int64 // when the reader stopped
	commitMS     []float64
	visibleMS    []float64
	readMS       []float64
	firstMS      []float64
	lateMS       []float64
	reads        int
	wr, rd       side // the writer's and the reader's operations
	deltaBytes   int64
	enumBytes    int64
	enumFrames   int
	obs          []observation
	probeSent    []int64 // the subscriber connection's count probes
	probeRecv    []int64
	stoppedEarly bool
	cpu0, cpu    time.Duration // process CPU time at the start, and used in the window
	acked        atomic.Int64  // commits acknowledged so far, for the subscriber's prober
}

// probeAfter is how many commits the subscriber's prober waits before
// its first count. The server keeps a pinned snapshot advancing for a
// few commits after the last read that touched it, and a count served
// from it re-arms that; starting after the sync pins have decayed keeps
// the count probes on the cold path in every run instead of only in
// those where a probe happens to arrive late.
const probeAfter = 64

// cpuTime is the CPU time this process (benchmark and server) has used.
// Unlike wall time it excludes time a hypervisor gave to other guests.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// side counts one connection's operations in a window: attempted,
// failed, and replies that disagree with the model.
type side struct {
	attempted, failed int
	wrong             []string
}

func (s *side) fail(format string, args ...any) {
	s.failed++
	s.wrong = append(s.wrong, fmt.Sprintf(format, args...))
}

// observation is a reader reply carrying a version: when it arrived.
type observation struct {
	version uint64
	at      int64
}

// measure runs the workload for dur: the writer on w in this goroutine,
// the reader on r in others. It returns once the reader has seen every
// commit the writer made.
func (b *bench) measure(dur time.Duration) *window {
	w := &window{from: b.next, start: now(), cpu0: cpuTime()}
	deadline := w.start + int64(dur)
	var final atomic.Uint64
	final.Store(b.currentVersion())
	writerDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	switch b.sp.reader {
	case readSubscribe:
		go func() { defer wg.Done(); b.subscriber(w, deadline, writerDone) }()
	default:
		go func() { defer wg.Done(); b.reader(w, &final, writerDone) }()
	}
	b.writer(w, deadline)
	w.wEnd = now()
	w.to = b.next
	final.Store(b.currentVersion())
	close(writerDone)
	wg.Wait()
	w.rEnd = now()
	w.cpu = cpuTime() - w.cpu0
	b.visibility(w)
	return w
}

func (b *bench) currentVersion() uint64 {
	if b.next == 0 {
		return b.v0
	}
	return b.ver[b.next-1]
}

// writer sends commits until the deadline: back to back in a closed
// loop, or on the spec's schedule in an open loop, where each commit is
// timed from when it was due.
func (b *bench) writer(w *window, deadline int64) {
	var period int64
	if b.sp.openRate > 0 {
		period = int64(1e9 / b.sp.openRate)
	}
	batch := b.sp.batch > 1
	for i := b.next; ; i++ {
		if i == b.in.commits() {
			w.stoppedEarly = true
			return
		}
		due := now()
		if period > 0 {
			due = w.start + int64(i-w.from)*period
		}
		if due >= deadline {
			return
		}
		if d := due - now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		sent := now()
		w.wr.attempted++
		b.w.deadline()
		err := b.w.send(b.in.commit(i))
		var l []byte
		if err == nil && batch {
			if l, err = b.w.line(); err == nil && !bytes.Equal(l, []byte("ok begin")) {
				err = fmt.Errorf("%s", l)
			}
		}
		if err == nil {
			if l, err = b.w.line(); err == nil && !bytes.HasPrefix(l, []byte("ok ")) {
				err = fmt.Errorf("%s", l)
			}
		}
		got := now()
		if err != nil {
			w.wr.fail("commit %d: %v", i, err)
			return
		}
		n, _ := uintField(l, 2) // ok applied|committed <n> <version>
		v, ok := uintField(l, 3)
		if !ok || int(n) != b.in.net[i] || v != b.ver[i] {
			w.wr.wrong = append(w.wr.wrong, fmt.Sprintf("commit %d: %q, want %d changes at version %d", i, l, b.in.net[i], b.ver[i]))
		}
		b.sendAt[i] = sent
		b.next = i + 1
		w.acked.Add(1)
		w.commitMS = append(w.commitMS, ms(got-due))
		if period > 0 {
			w.lateMS = append(w.lateMS, ms(sent-due))
		}
		b.tr.add("wire.commit", sent, got, int64(i))
	}
}

// reader runs the closed-loop count or enumerate reader, alternating q
// and p and pausing readGap after each reply, until the writer has
// stopped and a reply shows its last version.
func (b *bench) reader(w *window, final *atomic.Uint64, writerDone <-chan struct{}) {
	op := "count "
	if b.sp.reader == readEnumerate {
		op = "enumerate "
	}
	reqs := [2][]byte{[]byte(op + "q\n"), []byte(op + "p\n")}
	seen := uint64(0)
	for k := 0; ; k++ {
		select {
		case <-writerDone:
			if seen >= final.Load() {
				return
			}
		default:
		}
		t0 := now()
		w.rd.attempted++
		b.r.deadline()
		in0 := b.r.bytesIn
		err := b.r.send(reqs[k%2])
		var l []byte
		if err == nil {
			l, err = b.r.line()
		}
		tHead := now()
		if err != nil {
			w.rd.fail("%s: %v", reqs[k%2], err)
			return
		}
		var v uint64
		var ok bool
		if op == "count " {
			v, ok = uintField(l, 4) // ok count <name> <n> <version>
		} else {
			v, ok = uintField(l, 3) // snapshot <name> <n> <version> <arity>
			if n, _ := uintField(l, 2); ok && n > 0 {
				if _, err = b.r.line(); err == nil {
					w.firstMS = append(w.firstMS, ms(now()-t0))
				}
			}
			if err == nil && ok {
				_, err = b.r.frame(nil)
			}
			w.enumBytes += b.r.bytesIn - in0
			w.enumFrames++
		}
		t1 := now()
		if err != nil || !ok {
			w.rd.fail("%s: %q %v", reqs[k%2], l, err)
			return
		}
		seen = max(seen, v)
		w.reads++
		w.readMS = append(w.readMS, ms(t1-t0))
		w.obs = append(w.obs, observation{version: v, at: tHead})
		b.tr.add("wire."+op[:len(op)-1], t0, t1, int64(k))
		time.Sleep(b.sp.readGap)
	}
}

// subscriber receives the delta frames of both queries on r while a
// prober sends count requests on the same connection, one at a time
// with a pause between them. After the writer stops it sends a ping;
// every frame of every committed version is queued ahead of the pong.
func (b *bench) subscriber(w *window, deadline int64, writerDone <-chan struct{}) {
	var probes sync.WaitGroup
	replies := make(chan int64, 1) // at most one count is outstanding
	probes.Add(1)
	go func() {
		defer probes.Done()
		reqs := [2][]byte{[]byte("count q\n"), []byte("count p\n")}
		for w.acked.Load() < probeAfter && now() < deadline {
			time.Sleep(time.Millisecond)
		}
		for k := 0; now() < deadline; k++ {
			sent := now()
			if b.r.send(reqs[k%2]) != nil {
				return
			}
			w.probeSent = append(w.probeSent, sent)
			select {
			case at := <-replies:
				w.probeRecv = append(w.probeRecv, at)
			case <-time.After(replyTimeout):
				return
			}
			time.Sleep(b.sp.readGap)
		}
	}()
	pinged := make(chan error, 1)
	go func() {
		<-writerDone
		probes.Wait()
		pinged <- b.r.send([]byte("ping\n"))
	}()
	defer func() { <-pinged }()
	for {
		b.r.deadline()
		in0 := b.r.bytesIn
		l, err := b.r.line()
		at := now()
		if err != nil {
			w.rd.fail("subscriber: %v", err)
			return
		}
		switch {
		case bytes.HasPrefix(l, []byte("delta ")):
			qi := 0
			if bytes.HasPrefix(l, []byte("delta p ")) {
				qi = 1
			}
			v, _ := uintField(l, 2) // delta <name> <version> <nAdded> <nRemoved>
			from := len(b.subLog)
			b.subLog = append(append(b.subLog, l...), '\n')
			if b.subLog, err = b.r.frame(b.subLog); err != nil {
				w.rd.fail("delta frame: %v", err)
				return
			}
			b.deltas = append(b.deltas, deltaRec{q: qi, version: v, recv: at, from: from, to: len(b.subLog)})
			w.deltaBytes += b.r.bytesIn - in0
		case bytes.HasPrefix(l, []byte("ok count ")):
			select {
			case replies <- at:
			default:
			}
		case bytes.Equal(l, []byte("ok pong")):
			probes.Wait()
			w.rd.attempted += len(w.probeSent)
			w.rd.failed += len(w.probeSent) - len(w.probeRecv)
			w.reads = len(w.probeRecv)
			for i, at := range w.probeRecv {
				w.readMS = append(w.readMS, ms(at-w.probeSent[i]))
				b.tr.add("wire.count", w.probeSent[i], at, int64(i))
			}
			return
		case bytes.HasPrefix(l, []byte("resync ")):
			w.rd.failed++
			if bytes.HasPrefix(l, []byte("resync p ")) {
				b.resyncs[1]++
			} else {
				b.resyncs[0]++
			}
		default:
			w.rd.fail("subscriber: unexpected %q", l)
		}
	}
}

// visibility derives update→visible samples for the window's commits:
// the subscriber's delta frames on watch, the first reader reply at or
// past the commit's version otherwise.
func (b *bench) visibility(w *window) {
	if b.sp.reader == readSubscribe {
		for _, d := range b.deltas {
			if i := b.commitOf(d.version); i >= w.from && i < w.to {
				w.visibleMS = append(w.visibleMS, ms(d.recv-b.sendAt[i]))
				b.tr.add("wire.visible", b.sendAt[i], d.recv, int64(i))
			}
		}
		return
	}
	j := 0
	for i := w.from; i < w.to; i++ {
		if b.in.net[i] == 0 {
			continue
		}
		for j < len(w.obs) && w.obs[j].version < b.ver[i] {
			j++
		}
		if j == len(w.obs) {
			return
		}
		w.visibleMS = append(w.visibleMS, ms(w.obs[j].at-b.sendAt[i]))
	}
}

// commitOf returns the commit that produced version v, or -1.
func (b *bench) commitOf(v uint64) int {
	i := sort.Search(b.next, func(i int) bool { return b.ver[i] >= v })
	if i < b.next && b.ver[i] == v {
		return i
	}
	return -1
}

// check compares what the server serves after the run with the oracle:
// both queries enumerated and compared byte for byte (in sorted line
// order, since core's enumeration order is its own) with a naive join
// over the replayed stream, count against the enumerated length, and
// the subscriber's sync snapshot plus its delta frames against the
// final result. It returns every mismatch, and the failed operations
// (versions the subscriber never received) it found.
func (b *bench) check(w *window) (problems []string, missing int) {
	want := [2][]string{}
	want[0], want[1] = finalResults(b.sp, b.in, b.next)
	final := b.currentVersion()
	for qi, name := range queryNames {
		frame, v, err := b.w.enumerate(name)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		w.enumBytes += int64(len(frame))
		w.enumFrames++
		got := frameTuples(frame)
		if v != final {
			problems = append(problems, fmt.Sprintf("enumerate %s at version %d, want %d", name, v, final))
		}
		if p := compareTuples(name, got, want[qi]); p != "" {
			problems = append(problems, p)
		}
		l, err := b.w.call("count " + name)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		n, _ := uintField([]byte(l), 3)
		if cv, _ := uintField([]byte(l), 4); int(n) != len(got) || cv != final {
			problems = append(problems, fmt.Sprintf("%q after enumerating %d tuples at version %d", l, len(got), final))
		}
		if b.sp.reader != readSubscribe {
			continue
		}
		replayed, gaps, p := b.replay(qi, final)
		missing += gaps
		if p != "" {
			problems = append(problems, p)
		} else if b.resyncs[qi] == 0 {
			if p := compareTuples(name+" (delta replay)", replayed, got); p != "" {
				problems = append(problems, p)
			}
		}
	}
	return problems, missing
}

// frameTuples returns the tuple lines of a snapshot frame, sorted.
func frameTuples(frame []byte) []string {
	lines := strings.Split(strings.TrimSuffix(string(frame), ".\n"), "\n")
	lines = lines[1 : len(lines)-1] // header, and the empty string after the last tuple
	sort.Strings(lines)
	return lines
}

// compareTuples reports how got differs from want, byte for byte.
func compareTuples(what string, got, want []string) string {
	g, o := strings.Join(got, "\n"), strings.Join(want, "\n")
	if g == o {
		return ""
	}
	for i := 0; i < min(len(got), len(want)); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("%s: %d tuples, want %d; first difference at %d: %s, want %s", what, len(got), len(want), i, got[i], want[i])
		}
	}
	return fmt.Sprintf("%s: %d tuples, want %d", what, len(got), len(want))
}

// replay applies query qi's delta frames after its sync snapshot and
// returns the sorted result, the number of versions up to final that no
// frame carried, and a description of any inconsistent frame.
func (b *bench) replay(qi int, final uint64) ([]string, int, string) {
	set := map[string]bool{}
	for _, t := range frameTuples(b.snap[qi]) {
		set[t] = true
	}
	name := queryNames[qi]
	expect := b.snapVer[qi] + 1
	gaps := 0
	for _, d := range b.deltas {
		if d.q != qi || d.version <= b.snapVer[qi] {
			continue
		}
		if d.version < expect {
			return nil, gaps, fmt.Sprintf("%s: delta version %d repeated", name, d.version)
		}
		gaps += int(d.version - expect)
		expect = d.version + 1
		lines := strings.Split(string(b.subLog[d.from:d.to]), "\n")
		for _, l := range lines[1 : len(lines)-2] {
			t := "+" + l[1:]
			switch {
			case l[0] == '+' && !set[t]:
				set[t] = true
			case l[0] == '-' && set[t]:
				delete(set, t)
			default:
				return nil, gaps, fmt.Sprintf("%s: delta %d line %q does not apply", name, d.version, l)
			}
		}
	}
	if expect <= final && b.resyncs[qi] == 0 {
		gaps += int(final + 1 - expect)
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out, gaps, ""
}
