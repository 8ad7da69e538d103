package main

import (
	"fmt"
	"sync/atomic"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/eval"
	"dyncq/internal/qtree"
	"dyncq/pkg/dyncq"
)

// The traced run measures layers by replaying the run's own stream
// in-process through public entry points on twin workspaces that differ
// in one thing. The difference between two twins' per-commit times is
// the cost of that thing.

// twin is one replay configuration.
type twin struct {
	name    string
	queries []int  // registered queries, by index into queryNames
	capture bool   // CaptureDeltas on every registered query
	read    string // after each commit, read every query as the server serves this request
	count   bool   // time Handle.Count on every query after each commit
	commits int
}

// twinRun is what one replay measured, in nanoseconds.
type twinRun struct {
	commitNS    []float64
	countNS     []float64
	deltaTuples int64
	ws          *dyncq.Workspace
}

// replay loads the initial database into a fresh workspace, registers
// the twin's queries and replays the first commits the writer sent.
func replay(sp *spec, in *inputs, tw twin, tr *tracer) (*twinRun, error) {
	defer tr.within("twin." + tw.name)()
	ws := dyncq.NewWorkspace(dyncq.WorkspaceOptions{Workers: serverWorkers})
	if err := loadInitial(ws, in); err != nil {
		return nil, err
	}
	texts := [2]string{queryQ, queryP}
	var handles []*dyncq.Handle
	for _, qi := range tw.queries {
		h, err := ws.Register(queryNames[qi], texts[qi])
		if err != nil {
			return nil, err
		}
		handles = append(handles, h)
	}
	run := &twinRun{ws: ws}
	if tw.capture {
		for _, h := range handles {
			err := ws.CaptureDeltas(h.Name(), func(ev dyncq.DeltaEvent) {
				atomic.AddInt64(&run.deltaTuples, int64(len(ev.Added)+len(ev.Removed)))
			})
			if err != nil {
				return nil, err
			}
		}
	}
	applyName := "dyncq.Workspace.Apply"
	if sp.batch > 1 {
		applyName = "dyncq.Workspace.ApplyBatch"
	}
	var buf []dyncq.Update
	var err error
	for i := 0; i < tw.commits; i++ {
		buf = decodeCommit(in.commit(i), buf)
		run.commitNS = append(run.commitNS, tr.timed(applyName, int64(i), func() {
			if sp.batch > 1 {
				_, err = ws.ApplyBatch(buf)
			} else {
				_, err = ws.Apply(buf[0])
			}
		}))
		if err != nil {
			return nil, fmt.Errorf("twin %s commit %d: %w", tw.name, i, err)
		}
		for _, h := range handles {
			switch tw.read {
			case readEnumerate:
				tr.timed("dyncq.Handle.Snapshot", int64(i), func() { h.Snapshot() })
			case readCount:
				// The server answers count from the cached snapshot when one
				// is current (which keeps it demanded), else from the backend.
				tr.timed("dyncq.Handle.CachedSnapshot", int64(i), func() {
					if h.CachedSnapshot() == nil {
						h.Count()
					}
				})
			}
			if tw.count {
				run.countNS = append(run.countNS, tr.timed("dyncq.Handle.Count", int64(i), func() { h.Count() }))
			}
		}
	}
	return run, nil
}

// loadInitial loads the initial database in the same batches the wire
// setup sends.
func loadInitial(ws *dyncq.Workspace, in *inputs) error {
	for lo := 0; lo < len(in.initial); lo += loadChunk {
		if _, err := ws.ApplyBatch(in.initial[lo:min(lo+loadChunk, len(in.initial))]); err != nil {
			return err
		}
	}
	return nil
}

// paired returns a[i]-b[i] over the common prefix.
func paired(a, b []float64) []float64 {
	out := make([]float64, min(len(a), len(b)))
	for i := range out {
		out[i] = a[i] - b[i]
	}
	return out
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// layerMetrics runs every twin and the standalone store of the traced
// run over the first n commits and records their per-layer metrics into
// res. The "read" twin
// mirrors what the workload's second connection makes the server do
// (captures and count probes on watch, pins on browse, counts on
// ingest); "plain" registers the same queries without any of it.
func layerMetrics(sp *spec, in *inputs, n int, tr *tracer, res results) error {
	both := []int{0, 1}
	read := twin{name: "read", queries: both, commits: n, read: sp.reader}
	if sp.reader == readSubscribe {
		// The subscriber's count probes start once its sync pins have
		// decayed, so they take the server's cold count path.
		read.capture, read.read = true, readCount
	}
	twins := []twin{
		{name: "none", commits: n},
		{name: "q", queries: []int{0}, commits: n},
		{name: "p", queries: []int{1}, commits: n},
		{name: "plain", queries: both, count: true, commits: n},
		read,
	}
	if !read.capture {
		// The workload captures nothing; a short capture replay still
		// measures how large its deltas are.
		twins = append(twins, twin{name: "capture", queries: both, capture: true, commits: min(n, 300)})
	}
	runs := map[string]*twinRun{}
	for _, tw := range twins {
		r, err := replay(sp, in, tw, tr)
		if err != nil {
			return err
		}
		runs[tw.name] = r
	}
	toMS, toUS := 1e-6, 1e-3
	rd := runs["read"]
	res.pcts("dyncq.commit_ms", scale(rd.commitNS, toMS), 50, 99)
	res.pcts("dyncq.after_commit_ms", scale(paired(rd.commitNS, runs["plain"].commitNS), toMS), 50)
	res.pcts("core.maintain_us", scale(paired(runs["q"].commitNS, runs["none"].commitNS), toUS), 50)
	res.pcts("ivm.maintain_us", scale(paired(runs["p"].commitNS, runs["none"].commitNS), toUS), 50)
	res.pcts("dyncq.count_us", scale(runs["plain"].countNS, toUS), 50)
	capRun := rd
	if !read.capture {
		capRun = runs["capture"]
	}
	commits := len(capRun.commitNS)
	res.set("dyncq.delta_tuples_per_commit", ratio(float64(capRun.deltaTuples), float64(commits)), commits)

	plain := runs["plain"].ws
	var result uint64
	for _, name := range queryNames {
		result += plain.Handle(name).Count()
	}
	res.set("dyncq.result_tuples", float64(result), 0)

	// Pins on the replayed state: cold (cache evicted, so the pin
	// materialises) and warm (the shared cached snapshot).
	var cold, warm []float64
	for k := 0; k < 20; k++ {
		for _, name := range queryNames {
			h := plain.Handle(name)
			h.EvictSnapshot()
			cold = append(cold, tr.timed("dyncq.Handle.Snapshot.cold", int64(k), func() { h.Snapshot() })*toMS)
			for j := 0; j < 10; j++ {
				warm = append(warm, tr.timed("dyncq.Handle.Snapshot.warm", int64(k), func() { h.Snapshot() })*toUS)
			}
		}
	}
	res.pcts("dyncq.pin_cold_ms", cold, 50)
	res.pcts("dyncq.pin_warm_us", warm, 50)

	// Registration (the paper's preprocessing) of both queries on the
	// loaded, replayed store of the query-less twin.
	none := runs["none"].ws
	var reg []float64
	for k := 0; k < 5; k++ {
		var err error
		reg = append(reg, tr.timed("dyncq.Workspace.Register", int64(k), func() {
			if _, err = none.Register("q", queryQ); err == nil {
				_, err = none.Register("p", queryP)
			}
		})*toMS)
		if err != nil {
			return err
		}
		none.Unregister("q")
		none.Unregister("p")
	}
	res.set("dyncq.register_ms", median(reg), len(reg))

	if err := storeMetrics(in, n, tr, res); err != nil {
		return err
	}

	var parse, classify []float64
	for k := 0; k < 1000; k++ {
		for _, text := range []string{queryQ, queryP} {
			var q *cq.Query
			var err error
			parse = append(parse, tr.timed("cq.Parse", int64(k), func() { q, err = cq.Parse(text) })*toUS)
			if err != nil {
				return err
			}
			classify = append(classify, tr.timed("qtree.Classify", int64(k), func() { qtree.Classify(q) })*toUS)
		}
	}
	res.set("cq.parse_us", median(parse), len(parse))
	res.set("qtree.classify_us", median(classify), len(classify))
	return nil
}

// storeMetrics replays the stream on a standalone store and index set:
// the net-delta store path and the index maintenance of a batch, each
// timed alone.
func storeMetrics(in *inputs, n int, tr *tracer, res results) error {
	defer tr.within("twin.store")()
	db := dyndb.NewSharded(4 * serverWorkers)
	for lo := 0; lo < len(in.initial); lo += loadChunk {
		surv, err := db.NetDelta(in.initial[lo:min(lo+loadChunk, len(in.initial))])
		if err != nil {
			return err
		}
		db.ApplyNetDelta(surv, serverWorkers)
	}
	idx := eval.NewIndexSet(db)
	idx.Get("E", 1)
	idx.Get("E", 2)
	idx.Get("S", 1)
	idx.Get("T", 1)
	var buf []dyncq.Update
	var apply, index []float64
	updates, survivors := 0, 0
	for i := 0; i < n; i++ {
		buf = decodeCommit(in.commit(i), buf)
		var surv []dyndb.Update
		var err error
		apply = append(apply, tr.timed("dyndb.NetDelta+ApplyNetDelta", int64(i), func() {
			if surv, err = db.NetDelta(buf); err == nil {
				db.ApplyNetDelta(surv, serverWorkers)
			}
		})*1e-3)
		if err != nil {
			return err
		}
		index = append(index, tr.timed("eval.IndexSet.ApplyDelta", int64(i), func() { idx.ApplyDelta(surv) })*1e-3)
		updates += len(buf)
		survivors += len(surv)
	}
	res.pcts("dyndb.apply_us", apply, 50)
	res.pcts("eval.index_apply_us", index, 50)
	res.set("dyndb.net_fraction", ratio(float64(survivors), float64(updates)), updates)
	return nil
}
