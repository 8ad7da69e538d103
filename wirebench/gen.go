package main

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"dyncq/pkg/dyncq"
)

// The two queries every workload registers, over E/2, S/1, T/1.
const (
	queryQ = "Q(x,y) :- E(x,y), T(y)"       // q-hierarchical: routed to core
	queryP = "P(x,y) :- S(x), E(x,y), T(y)" // not q-hierarchical: routed to IVM
)

// queryNames lists the registered queries in registration order.
var queryNames = [2]string{"q", "p"}

// Reader kinds of the second connection.
const (
	readSubscribe = "subscribe" // subscribe to q and p, plus count probes
	readCount     = "count"     // closed-loop count round trips
	readEnumerate = "enumerate" // closed-loop enumerate round trips
)

// spec is one workload: the initial database, the update stream and the
// traffic of the second connection. Everything a run sends is generated
// from a spec and a seed.
type spec struct {
	name string

	xDom, yDom  int           // value domains of x and y
	edges       int           // |E|, kept stationary by the stream
	sFrac       float64       // |S| / xDom
	tFrac       float64       // |T| / yDom
	batch       int           // updates per commit; 1 sends `apply`, more send begin…commit
	zipf        float64       // key skew of the stream; 0 draws keys uniformly
	pT, pS      float64       // share of stream updates on T and on S (the rest go to E)
	openRate    float64       // commits per second of an open-loop writer; 0 = closed loop
	reader      string        // what the second connection does
	readGap     time.Duration // pause between a reply and the reader's next request
	maxRate     float64       // closed loop: commits per second generated ahead; a faster run ends early
	twinCommits int           // commits each twin replays in the traced run
}

var specs = []*spec{
	{
		name: "watch",
		xDom: 400, yDom: 600, edges: 24000, sFrac: 0.75, tFrac: 0.5,
		batch: 1, pT: 0.02, reader: readSubscribe, readGap: 5 * time.Millisecond,
		maxRate: 3000, twinCommits: 1200,
	},
	{
		name: "ingest",
		xDom: 600, yDom: 1000, edges: 60000, sFrac: 2.0 / 3, tFrac: 0.5,
		batch: 300, zipf: 1.1, pT: 0.05, pS: 0.05, reader: readCount,
		maxRate: 500, twinCommits: 1200,
	},
	{
		name: "browse",
		xDom: 400, yDom: 600, edges: 24000, sFrac: 0.75, tFrac: 0.5,
		batch: 1, pT: 0.02, openRate: 40, reader: readEnumerate, readGap: 4 * time.Millisecond,
		twinCommits: 1200,
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// Relation indices in the model.
const (
	relE = iota
	relS
	relT
)

var relNames = [3]string{"E", "S", "T"}

func relIndex(name string) int {
	switch name {
	case "S":
		return relS
	case "T":
		return relT
	}
	return relE
}

// keySet is a set of packed keys with O(1) insert, delete and uniform
// choice of a member. Members live in insertion-then-swap order, so a
// seeded generator walks it deterministically (no map iteration).
type keySet struct {
	keys []uint64
	pos  map[uint64]int
}

func newKeySet(n int) *keySet { return &keySet{pos: make(map[uint64]int, n)} }

func (s *keySet) has(k uint64) bool { _, ok := s.pos[k]; return ok }

func (s *keySet) add(k uint64) {
	s.pos[k] = len(s.keys)
	s.keys = append(s.keys, k)
}

func (s *keySet) remove(k uint64) {
	i := s.pos[k]
	last := s.keys[len(s.keys)-1]
	s.keys[i] = last
	s.pos[last] = i
	s.keys = s.keys[:len(s.keys)-1]
	delete(s.pos, k)
}

// model is a database over E, S and T as sets of packed keys.
type model struct {
	yDom int
	rels [3]*keySet
}

func newModel(sp *spec) *model {
	return &model{yDom: sp.yDom, rels: [3]*keySet{newKeySet(sp.edges), newKeySet(sp.xDom), newKeySet(sp.yDom)}}
}

func (m *model) packE(x, y uint64) uint64 { return x*uint64(m.yDom) + y }

func (m *model) tuple(rel int, k uint64) []dyncq.Value {
	if rel == relE {
		return []dyncq.Value{dyncq.Value(k / uint64(m.yDom)), dyncq.Value(k % uint64(m.yDom))}
	}
	return []dyncq.Value{dyncq.Value(k)}
}

// apply executes one update with set semantics.
func (m *model) apply(u dyncq.Update) {
	rel := relIndex(u.Rel)
	k := uint64(u.Tuple[0])
	if rel == relE {
		k = m.packE(k, uint64(u.Tuple[1]))
	}
	switch set := m.rels[rel]; {
	case u.Op == dyncq.OpInsert && !set.has(k):
		set.add(k)
	case u.Op == dyncq.OpDelete && set.has(k):
		set.remove(k)
	}
}

// results computes q and p over the model by a naive join: every E tuple
// is checked against T (and S), independent of any engine structure.
// Tuples are rendered as wire tuple lines and sorted bytewise.
func (m *model) results() (q, p []string) {
	for _, k := range m.rels[relE].keys {
		t := m.tuple(relE, k)
		if !m.rels[relT].has(uint64(t[1])) {
			continue
		}
		q = append(q, tupleLine("q", t))
		if m.rels[relS].has(uint64(t[0])) {
			p = append(p, tupleLine("p", t))
		}
	}
	sort.Strings(q)
	sort.Strings(p)
	return q, p
}

// zipf draws k in [0,n) with probability proportional to (1+k)^-s from a
// cumulative table: cheaper than math/rand's rejection sampler, and the
// stream's cost is paid before every run.
type zipf []float64

func newZipf(s float64, n int) zipf {
	cdf := make(zipf, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	cdf[n-1] = 1
	return cdf
}

func (z zipf) draw(r *rand.Rand) uint64 { return uint64(sort.SearchFloat64s(z, r.Float64())) }

// gen is the seeded stream generator. It applies every update it emits
// to its own model, so it always knows the exact database the server
// should hold.
type gen struct {
	*model
	sp     *spec
	rng    *rand.Rand
	zx, zy zipf // nil for uniform keys
	// insertNext alternates inserts and deletes per relation, which keeps
	// every relation's size within one of its initial size.
	insertNext [3]bool
	touched    map[uint64]bool // per batch: packed (rel,key) -> present before the batch
}

func newGen(sp *spec, seed int64) *gen {
	g := &gen{model: newModel(sp), sp: sp, rng: rand.New(rand.NewSource(seed)), touched: make(map[uint64]bool)}
	if sp.zipf > 0 {
		g.zx, g.zy = newZipf(sp.zipf, sp.xDom), newZipf(sp.zipf, sp.yDom)
	}
	fill := func(rel, n int, draw func() uint64) {
		for len(g.rels[rel].keys) < n {
			if k := draw(); !g.rels[rel].has(k) {
				g.rels[rel].add(k)
			}
		}
	}
	fill(relS, int(sp.sFrac*float64(sp.xDom)), func() uint64 { return uint64(g.rng.Intn(sp.xDom)) })
	fill(relT, int(sp.tFrac*float64(sp.yDom)), func() uint64 { return uint64(g.rng.Intn(sp.yDom)) })
	fill(relE, sp.edges, func() uint64 {
		return g.packE(uint64(g.rng.Intn(sp.xDom)), uint64(g.rng.Intn(sp.yDom)))
	})
	for r := range g.insertNext {
		g.insertNext[r] = g.rng.Intn(2) == 0
	}
	return g
}

// initial returns the initial database as insert commands: S, T, then E,
// each in the model's member order.
func (g *gen) initial() []dyncq.Update {
	var out []dyncq.Update
	for _, rel := range []int{relS, relT, relE} {
		for _, k := range g.rels[rel].keys {
			out = append(out, dyncq.Insert(relNames[rel], g.tuple(rel, k)...))
		}
	}
	return out
}

// drawKey draws a key of rel from the stream's key distribution.
func (g *gen) drawKey(rel int) uint64 {
	if g.zx == nil {
		return g.uniformKey(rel)
	}
	switch rel {
	case relS:
		return g.zx.draw(g.rng)
	case relT:
		return g.zy.draw(g.rng)
	}
	return g.packE(g.zx.draw(g.rng), g.zy.draw(g.rng))
}

// step emits one update that changes the model: an insert of an absent
// key or a delete of a present one, drawn from the stream distribution
// and falling back to a uniform choice when the draw keeps missing.
func (g *gen) step() dyncq.Update {
	rel := relE
	if u := g.rng.Float64(); u < g.sp.pT {
		rel = relT
	} else if u < g.sp.pT+g.sp.pS {
		rel = relS
	}
	set := g.rels[rel]
	insert := g.insertNext[rel] || len(set.keys) == 0
	g.insertNext[rel] = !insert
	// Draw from the stream distribution; past 64 misses fall back to a
	// uniform absent key (every domain is larger than its set) or a
	// uniform present one.
	var k uint64
	for try := 0; ; try++ {
		switch {
		case try < 64:
			k = g.drawKey(rel)
		case insert:
			k = g.uniformKey(rel)
		default:
			k = set.keys[g.rng.Intn(len(set.keys))]
		}
		if set.has(k) != insert {
			break
		}
	}
	tag := uint64(rel)<<60 | k
	if _, seen := g.touched[tag]; !seen {
		g.touched[tag] = !insert
	}
	if insert {
		set.add(k)
		return dyncq.Insert(relNames[rel], g.tuple(rel, k)...)
	}
	set.remove(k)
	return dyncq.Delete(relNames[rel], g.tuple(rel, k)...)
}

func (g *gen) uniformKey(rel int) uint64 {
	switch rel {
	case relS:
		return uint64(g.rng.Intn(g.sp.xDom))
	case relT:
		return uint64(g.rng.Intn(g.sp.yDom))
	}
	return g.packE(uint64(g.rng.Intn(g.sp.xDom)), uint64(g.rng.Intn(g.sp.yDom)))
}

// next emits one commit's updates into buf and returns them with the
// number of net changes the commit makes (what the server reports as
// applied/committed: keys whose membership differs before and after).
func (g *gen) next(buf []dyncq.Update) ([]dyncq.Update, int) {
	clear(g.touched)
	buf = buf[:0]
	for i := 0; i < g.sp.batch; i++ {
		buf = append(buf, g.step())
	}
	net := 0
	for tag, before := range g.touched {
		rel, k := int(tag>>60), tag&(1<<60-1)
		if g.rels[rel].has(k) != before {
			net++
		}
	}
	return buf, net
}

func tupleLine(name string, t []dyncq.Value) string {
	b := []byte{'+'}
	b = append(b, name...)
	b = append(b, '(')
	for i, v := range t {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(append(b, ')'))
}

// appendUpdate appends one update in the stream format, `±R(v,…)\n`.
func appendUpdate(b []byte, u dyncq.Update) []byte {
	if u.Op == dyncq.OpDelete {
		b = append(b, '-')
	} else {
		b = append(b, '+')
	}
	b = append(b, u.Rel...)
	b = append(b, '(')
	for i, v := range u.Tuple {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ')', '\n')
}

// appendCommit appends one commit as wire requests: `apply ±R(t)` for a
// single update, begin…commit otherwise.
func appendCommit(b []byte, ups []dyncq.Update, batch bool) []byte {
	if !batch {
		return appendUpdate(append(b, "apply "...), ups[0])
	}
	b = append(b, "begin\n"...)
	for _, u := range ups {
		b = appendUpdate(b, u)
	}
	return append(b, "commit\n"...)
}

// loadChunk is the number of initial tuples per begin…commit batch.
const loadChunk = 10000

// inputs is everything the benchmark sends, generated and wire-encoded
// before any timing starts.
type inputs struct {
	load    [][]byte // initial database as begin…commit batches
	stream  []byte   // all commits, back to back
	off     []int    // commit i is stream[off[i]:off[i+1]]
	net     []int    // net changes of commit i
	nInit   [2]int   // |q| and |p| over the initial database
	initial []dyncq.Update
}

func (in *inputs) commits() int        { return len(in.net) }
func (in *inputs) commit(i int) []byte { return in.stream[in.off[i]:in.off[i+1]] }

func generate(sp *spec, seed int64, commits int) *inputs {
	g := newGen(sp, seed)
	in := &inputs{initial: g.initial()}
	for lo := 0; lo < len(in.initial); lo += loadChunk {
		hi := min(lo+loadChunk, len(in.initial))
		in.load = append(in.load, appendCommit(nil, in.initial[lo:hi], true))
	}
	q, p := g.results()
	in.nInit = [2]int{len(q), len(p)}
	in.off = make([]int, 1, commits+1)
	in.net = make([]int, 0, commits)
	var buf []dyncq.Update
	for i := 0; i < commits; i++ {
		var net int
		buf, net = g.next(buf)
		in.stream = appendCommit(in.stream, buf, sp.batch > 1)
		in.off = append(in.off, len(in.stream))
		in.net = append(in.net, net)
	}
	return in
}

// finalResults replays the initial database and the first k commits,
// decoded from the bytes the writer sent, on a fresh model and returns q
// and p over the resulting database.
func finalResults(sp *spec, in *inputs, k int) (q, p []string) {
	m := newModel(sp)
	for _, u := range in.initial {
		m.apply(u)
	}
	var buf []dyncq.Update
	for i := 0; i < k; i++ {
		buf = decodeCommit(in.commit(i), buf)
		for _, u := range buf {
			m.apply(u)
		}
	}
	return m.results()
}

// decodeCommit parses one encoded commit back into updates with the
// benchmark's own parser, independent of the server's. Every update gets
// a fresh tuple: a workspace may keep it.
func decodeCommit(b []byte, buf []dyncq.Update) []dyncq.Update {
	buf = buf[:0]
	for len(b) > 0 {
		i := bytes.IndexByte(b, '\n')
		line := bytes.TrimPrefix(b[:i], []byte("apply "))
		b = b[i+1:]
		if len(line) == 0 || (line[0] != '+' && line[0] != '-') {
			continue // begin, commit
		}
		open := bytes.IndexByte(line, '(')
		var t []dyncq.Value
		for _, f := range bytes.Split(line[open+1:len(line)-1], []byte(",")) {
			v, _ := strconv.ParseInt(string(f), 10, 64)
			t = append(t, dyncq.Value(v))
		}
		rel := relNames[relIndex(string(line[1:open]))]
		if line[0] == '-' {
			buf = append(buf, dyncq.Delete(rel, t...))
		} else {
			buf = append(buf, dyncq.Insert(rel, t...))
		}
	}
	return buf
}
