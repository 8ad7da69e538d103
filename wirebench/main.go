// Command wirebench is the repository's benchmark. It runs one workload
// against an in-process dyncq server on a loopback TCP listener, over at
// most two connections, with inputs generated from a seed and
// wire-encoded before timing starts. It checks every reply and the final
// results against a naive-join oracle, prints every metric with its unit
// and sample count, and ends with one JSON line:
//
//	bash wirebench/run.sh --workload watch --seed 1 --seconds 25 --trace 0
//
// from the repository root; --workload all runs every workload in turn.
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer ones (two halves of the wire run, untraced then traced, and
// in-process twin replays of the same stream) and writes the spans it
// recorded as JSON lines. metrics.json lists every metric, its unit,
// the layer it belongs to and what it should move.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"dyncq/pkg/dyncq"
)

//go:embed metrics.json
var metricsJSON []byte

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type catalog struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	Printed  []metricDef `json:"printed"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadCatalog() (*catalog, error) {
	var c catalog
	if err := json.Unmarshal(metricsJSON, &c); err != nil {
		return nil, fmt.Errorf("metrics.json: %w", err)
	}
	return &c, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wirebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: watch, ingest, browse, or all of them in turn")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spans := fs.String("spans", "", "file the traced run writes its spans to (default: wirebench-spans-<workload>-<seed>.jsonl under $CARGO_TARGET_DIR or .bench_build)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	todo := specs
	if *workload != "all" {
		todo = []*spec{specByName(*workload)}
	}
	if todo[0] == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "wirebench: need --workload watch|ingest|browse|all, --trace 0|1 and --seconds > 0\n")
		return 2
	}
	cat, err := loadCatalog()
	if err != nil {
		fmt.Fprintln(stderr, "wirebench:", err)
		return 1
	}
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	dur := time.Duration(*seconds * float64(time.Second))
	code := 0
	for _, sp := range todo {
		path := *spans
		if path == "" {
			path = filepath.Join(dir, fmt.Sprintf("wirebench-spans-%s-%d.jsonl", sp.name, *seed))
		}
		o, err := execute(sp, *seed, dur, *trace == 1, path)
		if err != nil {
			fmt.Fprintf(stderr, "wirebench: %s: %v\n", sp.name, err)
			code = 1
			continue
		}
		code = max(code, o.print(stdout, stderr, cat, *trace == 1))
	}
	return code
}

// outcome is one run's verdict and metrics.
type outcome struct {
	sp                *spec
	res               results
	attempted, failed int
	problems          []string
	stoppedEarly      bool
	steal             float64 // hypervisor steal over the measured windows
}

// capacity is how many commits to generate so the writer cannot run out
// within dur.
func capacity(sp *spec, dur time.Duration) int {
	rate := sp.maxRate
	if sp.openRate > 0 {
		rate = sp.openRate
	}
	return int(rate*dur.Seconds()) + 1
}

// stealFrac is the share of CPU time the hypervisor took from this
// machine since the previous call (Linux /proc/stat), or -1 when it
// cannot be read. It is printed so noisy runs can be told apart.
func stealFrac(prev *[2]uint64) float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	fields := strings.Fields(strings.SplitN(string(raw), "\n", 2)[0])
	var total, steal uint64
	for i, f := range fields[1:] {
		var v uint64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	d := ratio(float64(steal-prev[1]), float64(total-prev[0]))
	*prev = [2]uint64{total, steal}
	return d
}

func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

func execute(sp *spec, seed int64, dur time.Duration, traced bool, spansPath string) (*outcome, error) {
	in := generate(sp, seed, capacity(sp, dur))
	var setupCPU, setupWall []float64
	var b *bench
	var base float64
	for i := 0; i < setupRuns; i++ {
		runtime.GC() // no garbage of an earlier set-up is collected during this one
		if i == setupRuns-1 {
			base = heapMB()
		}
		b = newBench(sp, in)
		wall, cpu, err := b.start()
		if err != nil {
			b.stop()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupWall = append(setupWall, wall.Seconds())
		setupCPU = append(setupCPU, cpu.Seconds())
		if i < setupRuns-1 {
			b.stop()
		}
	}
	defer b.stop()
	o := &outcome{sp: sp, res: results{}}
	o.res.set("setup_s", median(setupCPU), len(setupCPU))
	o.res.set("setup_wall_s", median(setupWall), len(setupWall))
	if sp.reader == readSubscribe {
		if err := b.subscribe(); err != nil {
			return nil, fmt.Errorf("subscribe: %w", err)
		}
	}

	var wins []*window
	var gauge *gauges
	var st [2]uint64
	stealFrac(&st)
	if !traced {
		wins = append(wins, b.measure(dur))
	} else {
		wins = append(wins, b.measure(dur/2))
		b.tr = &tracer{}
		gauge = readGauges(b)
		end := b.tr.within("wire")
		wins = append(wins, b.measure(dur/2))
		end()
		gauge = readGauges(b).minus(gauge)
	}
	o.steal = stealFrac(&st)
	last := wins[len(wins)-1]
	mem := heapMB() - base
	problems, missing := b.check(last)
	o.problems = problems
	for _, w := range wins {
		for _, s := range []side{w.wr, w.rd} {
			o.attempted += s.attempted
			o.failed += s.failed
			o.problems = append(o.problems, s.wrong...)
		}
		o.stoppedEarly = o.stoppedEarly || w.stoppedEarly
	}
	if sp.reader == readSubscribe {
		o.attempted += 2 * int(b.currentVersion()-b.snapVer[0])
		o.failed += missing
	}
	o.res.set("failed_frac", ratio(float64(o.failed), float64(o.attempted)), o.attempted)

	if !traced {
		w := last
		o.res.pcts("commit_ms", w.commitMS, 50, 99)
		o.res.pcts("visible_ms", w.visibleMS, 50, 99)
		o.res.pcts("read_ms", w.readMS, 50, 99)
		if sp.reader == readEnumerate {
			o.res.pcts("first_tuple_ms", w.firstMS, 50, 99)
		}
		if len(w.lateMS) > 0 {
			o.res.pcts("sched_late_ms", w.lateMS, 99)
		}
		o.res.set("updates_per_s", float64((w.to-w.from)*sp.batch)/time.Duration(w.wEnd-w.start).Seconds(), w.to-w.from)
		o.res.set("reads_per_s", float64(w.reads)/time.Duration(w.rEnd-w.start).Seconds(), w.reads)
		o.res.set("mem_mb", mem, 0)
		o.res.set("cpu_us_per_update", float64(w.cpu.Microseconds())/float64(max((w.to-w.from)*sp.batch, 1)), (w.to-w.from)*sp.batch)
		return o, nil
	}

	a, w := wins[0], last
	commits := float64(w.to - w.from)
	untraced, _ := percentile(a.commitMS, 50)
	tracedP50, wireErr := percentile(w.commitMS, 50)
	o.res["trace.overhead_frac"] = value{v: ratio(tracedP50-untraced, untraced), n: len(w.commitMS), err: wireErr}
	o.res.set("server.delta_bytes_per_commit", ratio(float64(w.deltaBytes), commits), w.to-w.from)
	o.res.set("server.enumerate_bytes", ratio(float64(w.enumBytes), float64(w.enumFrames)), w.enumFrames)
	o.res.set("server.frame_cache_hit_rate", ratio(float64(gauge.frameHits), float64(gauge.frameHits+gauge.frameMisses)), int(gauge.frameHits+gauge.frameMisses))
	o.res.set("server.dropped_frames", float64(gauge.dropped), 0)
	o.res.set("dyncq.snapshot.hit_rate", ratio(float64(gauge.snap.Hits), float64(gauge.snap.Hits+gauge.snap.Misses)), int(gauge.snap.Hits+gauge.snap.Misses))
	o.res.set("dyncq.snapshot.patched_per_commit", ratio(float64(gauge.snap.Patched), commits), w.to-w.from)
	o.res.set("dyncq.snapshot.rebuilt_per_commit", ratio(float64(gauge.snap.Rebuilt), commits), w.to-w.from)
	ops := float64(w.to - w.from + w.reads)
	o.res.set("go.gc_cycles", float64(gauge.gcCycles), 0)
	o.res.set("go.gc_pause_ms", float64(gauge.gcPauseNS)/1e6, int(gauge.gcCycles))
	o.res.set("go.alloc_bytes_per_op", ratio(float64(gauge.allocBytes), ops), int(ops))

	if err := layerMetrics(sp, in, min(sp.twinCommits, b.next), b.tr, o.res); err != nil {
		return nil, fmt.Errorf("twin replay: %w", err)
	}
	if d := o.res["dyncq.commit_ms.p50"]; d.err == nil && wireErr == nil {
		o.res.set("server.wire_overhead_ms.p50", tracedP50-d.v, len(w.commitMS))
	} else {
		o.res["server.wire_overhead_ms.p50"] = value{err: fmt.Errorf("needs wire and twin commit p50")}
	}
	if err := b.tr.write(spansPath); err != nil {
		return nil, err
	}
	return o, nil
}

// gauges are the server and runtime counters read around the traced
// window.
type gauges struct {
	frameHits, frameMisses uint64
	dropped                uint64
	snap                   dyncq.SnapshotCacheStats
	gcCycles, allocBytes   uint64
	gcPauseNS              uint64
}

func readGauges(b *bench) *gauges {
	g := &gauges{}
	fc := b.srv.FrameCacheStats()
	g.frameHits, g.frameMisses = fc.Hits, fc.Misses
	for _, name := range queryNames {
		g.dropped += b.srv.DroppedFrames(name)
		s := b.srv.Workspace().Handle(name).SnapshotCacheStats()
		g.snap.Hits += s.Hits
		g.snap.Misses += s.Misses
		g.snap.Patched += s.Patched
		g.snap.Rebuilt += s.Rebuilt
	}
	samples := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(samples)
	g.gcCycles, g.allocBytes = samples[0].Value.Uint64(), samples[1].Value.Uint64()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	g.gcPauseNS = m.PauseTotalNs
	return g
}

// minus turns two readings into the change over the window; dropped
// frames are a level, not a counter, so the later reading stands.
func (g *gauges) minus(before *gauges) *gauges {
	return &gauges{
		frameHits:   g.frameHits - before.frameHits,
		frameMisses: g.frameMisses - before.frameMisses,
		dropped:     g.dropped,
		snap: dyncq.SnapshotCacheStats{
			Hits:    g.snap.Hits - before.snap.Hits,
			Misses:  g.snap.Misses - before.snap.Misses,
			Patched: g.snap.Patched - before.snap.Patched,
			Rebuilt: g.snap.Rebuilt - before.snap.Rebuilt,
		},
		gcCycles:   g.gcCycles - before.gcCycles,
		allocBytes: g.allocBytes - before.allocBytes,
		gcPauseNS:  g.gcPauseNS - before.gcPauseNS,
	}
}

// print writes the human-readable table and the final JSON line, and
// returns the exit code: 0 for a correct run whose every reported
// metric could be measured.
func (o *outcome) print(stdout, stderr io.Writer, cat *catalog, traced bool) int {
	fmt.Fprintf(stdout, "wirebench workload=%s traced=%t\n", o.sp.name, traced)
	fmt.Fprintf(stdout, "machine nproc=%d gomaxprocs=%d go=%s server_workers=%d steal_frac=%.3f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), serverWorkers, o.steal)
	gated, shown := cat.EndToEnd, append(append([]metricDef(nil), cat.EndToEnd...), cat.Printed...)
	if traced {
		gated, shown = cat.PerLayer, cat.PerLayer
	}
	bad := 0
	for _, m := range shown {
		v, ok := o.res[m.Name]
		switch {
		case !ok:
			fmt.Fprintf(stdout, "  %-36s n/a on this workload\n", m.Name)
		case v.err != nil:
			fmt.Fprintf(stdout, "  %-36s ERROR: %v\n", m.Name, v.err)
		default:
			fmt.Fprintf(stdout, "  %-36s %14.4f %-5s n=%d\n", m.Name, v.v, m.Unit, v.n)
		}
	}
	for _, m := range gated {
		if v, ok := o.res[m.Name]; !ok || v.err != nil {
			fmt.Fprintf(stderr, "wirebench: metric %s could not be measured\n", m.Name)
			bad++
		}
	}
	if o.stoppedEarly {
		fmt.Fprintf(stdout, "note: the generated stream ran out before the window ended\n")
	}
	for _, p := range o.problems {
		fmt.Fprintf(stderr, "wirebench: WRONG OUTPUT: %s\n", p)
	}
	if bad > 0 {
		return 1
	}
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{Correct: len(o.problems) == 0, Attempted: max(o.attempted, 1), Failed: o.failed, Metrics: map[string]jv{}}
	for _, m := range gated {
		out.Metrics[m.Name] = jv{Value: o.res[m.Name].v, Unit: m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "wirebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
