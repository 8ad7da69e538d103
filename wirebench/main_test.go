package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"dyncq/pkg/dyncq"
)

// small returns a copy of a workload shrunk so a test server sets up and
// commits quickly.
func small(t *testing.T, name string) *spec {
	t.Helper()
	sp := *specByName(name)
	sp.xDom, sp.yDom, sp.edges = 60, 50, 600
	sp.twinCommits = 50
	if sp.batch > 1 {
		sp.batch = 20
	}
	return &sp
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, sp := range specs {
		a, b := generate(sp, 7, 300), generate(sp, 7, 300)
		if !reflect.DeepEqual(a.load, b.load) || !bytes.Equal(a.stream, b.stream) || !reflect.DeepEqual(a.net, b.net) {
			t.Errorf("%s: seed 7 generated different inputs twice", sp.name)
		}
		if c := generate(sp, 8, 300); bytes.Equal(a.stream, c.stream) {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", sp.name)
		}
	}
}

func TestStreamKeepsDatabaseSizeStationary(t *testing.T) {
	for _, sp := range specs {
		g := newGen(sp, 3)
		var sizes [3]int
		for r := range sizes {
			sizes[r] = len(g.rels[r].keys)
		}
		var buf []dyncq.Update
		for i := 0; i < 2000; i++ {
			buf, _ = g.next(buf)
			for r := range sizes {
				if d := len(g.rels[r].keys) - sizes[r]; d < -sp.batch || d > sp.batch {
					t.Fatalf("%s: %s drifted by %d after %d commits", sp.name, relNames[r], d, i+1)
				}
			}
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	for _, c := range []struct {
		n, pc int
		ok    bool
		want  float64
	}{
		{1000, 99, true, 990}, {999, 99, false, 0},
		{20, 50, true, 10}, {19, 50, false, 0},
		{0, 50, false, 0},
	} {
		v, err := percentile(xs(c.n), c.pc)
		if (err == nil) != c.ok || (c.ok && v != c.want) {
			t.Errorf("p%d of %d samples = %v, %v; want ok=%v value %v", c.pc, c.n, v, err, c.ok, c.want)
		}
	}
	r := results{}
	r.pcts("x", xs(999), 50, 99)
	if r["x.p50"].err != nil || r["x.p99"].err == nil || r["x.p99"].n != 999 {
		t.Errorf("pcts at the boundary: %+v", r)
	}
}

// run starts a small server, syncs the reader, and runs a short window.
func runSmall(t *testing.T, name string) *bench {
	t.Helper()
	sp := small(t, name)
	in := generate(sp, 11, 2000)
	b := newBench(sp, in)
	t.Cleanup(b.stop)
	if _, _, err := b.start(); err != nil {
		t.Fatal(err)
	}
	if sp.reader == readSubscribe {
		if err := b.subscribe(); err != nil {
			t.Fatal(err)
		}
	}
	w := b.measure(300 * time.Millisecond)
	if len(w.wr.wrong)+len(w.rd.wrong) > 0 || w.to == w.from {
		t.Fatalf("window: %d commits, wrong %v %v", w.to-w.from, w.wr.wrong, w.rd.wrong)
	}
	return b
}

func TestOracleAcceptsCorrectRun(t *testing.T) {
	for _, sp := range specs {
		b := runSmall(t, sp.name)
		if problems, missing := b.check(&window{}); len(problems) > 0 || missing > 0 {
			t.Errorf("%s: problems %v, %d missing versions", sp.name, problems, missing)
		}
	}
}

func TestOracleRejectsTamperedResult(t *testing.T) {
	b := runSmall(t, "ingest")
	// A commit the oracle does not know about: the served result is no
	// longer the naive join over the generated stream.
	for _, u := range []string{"apply +E(1000,1000)", "apply +T(1000)"} {
		if _, err := b.w.call(u); err != nil {
			t.Fatal(err)
		}
	}
	if problems, _ := b.check(&window{}); len(problems) == 0 {
		t.Fatal("check accepted a result the oracle does not produce")
	}
}

func TestDeltaReplayRejectsTamperedFrame(t *testing.T) {
	b := runSmall(t, "watch")
	i := bytes.Index(b.subLog, []byte("\n+q("))
	if i < 0 {
		t.Fatal("no added q tuple in the subscriber log")
	}
	b.subLog[i+1] = '-'
	problems, _ := b.check(&window{})
	if len(problems) == 0 || !strings.Contains(strings.Join(problems, ";"), "delta") {
		t.Fatalf("check accepted a tampered delta frame: %v", problems)
	}
}

// The repository's BENCHMARK.json must agree with the catalog the
// program reports from.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range cat.Workloads {
		if i >= len(bm.Workloads) || bm.Workloads[i].Name != w.Name || bm.Workloads[i].Why != w.Why || specByName(w.Name) == nil {
			t.Errorf("workload %d: BENCHMARK.json %+v, catalog %+v", i, bm.Workloads, w)
		}
	}
	if len(bm.Workloads) != len(cat.Workloads) || len(cat.Workloads) != len(specs) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the catalog, %d specs", len(bm.Workloads), len(cat.Workloads), len(specs))
	}
	if !reflect.DeepEqual(bm.EndToEnd, cat.EndToEnd) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", bm.EndToEnd, cat.EndToEnd)
	}
	if !reflect.DeepEqual(bm.PerLayer, cat.PerLayer) {
		t.Errorf("per_layer differs:\n%+v\n%+v", bm.PerLayer, cat.PerLayer)
	}
}
