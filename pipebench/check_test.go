package main

import (
	"testing"

	"dcdb/internal/collectagent"
	"dcdb/internal/core"
	"dcdb/internal/libdcdb"
)

// Each output check must pass on the generator's own answer and fail
// once the answer is altered in any of the ways a faulty layer could
// alter it.

const testSeed = 7

func TestCheckSeries(t *testing.T) {
	good := func() []core.Reading { return series(testSeed, 3, 10, 50) }
	if err := checkSeries(testSeed, 3, 10, 50, good()); err != nil {
		t.Fatalf("correct series rejected: %v", err)
	}
	alter := map[string]func([]core.Reading) []core.Reading{
		"value":     func(rs []core.Reading) []core.Reading { rs[7].Value += 0.25; return rs },
		"timestamp": func(rs []core.Reading) []core.Reading { rs[7].Timestamp++; return rs },
		"dropped":   func(rs []core.Reading) []core.Reading { return append(rs[:7], rs[8:]...) },
		"extra":     func(rs []core.Reading) []core.Reading { return append(rs, rs[len(rs)-1]) },
		"order":     func(rs []core.Reading) []core.Reading { rs[3], rs[4] = rs[4], rs[3]; return rs },
		"sensor":    func([]core.Reading) []core.Reading { return series(testSeed, 4, 10, 50) },
		"seed":      func([]core.Reading) []core.Reading { return series(testSeed+1, 3, 10, 50) },
	}
	for name, f := range alter {
		if err := checkSeries(testSeed, 3, 10, 50, f(good())); err == nil {
			t.Errorf("%s: altered series accepted", name)
		}
	}
}

func prefixFixture() ([]prefixWant, []keyedSeries) {
	m := core.NewTopicMapper()
	var want []prefixWant
	for s := 0; s < 4; s++ {
		k := 2*querySensorsPerHost + s
		id, _ := m.Map(queryTopic(k))
		want = append(want, prefixWant{id: id, k: k})
	}
	sortPrefixWant(want)
	got := make([]keyedSeries, len(want))
	for i, w := range want {
		got[i] = keyedSeries{id: w.id, rs: series(testSeed, w.k, 5, 20)}
	}
	return want, got
}

func TestCheckPrefix(t *testing.T) {
	want, got := prefixFixture()
	if err := checkPrefix(testSeed, want, 5, 20, got); err != nil {
		t.Fatalf("correct prefix result rejected: %v", err)
	}
	alter := map[string]func([]keyedSeries) []keyedSeries{
		"sid order": func(g []keyedSeries) []keyedSeries { g[0], g[1] = g[1], g[0]; return g },
		"missing":   func(g []keyedSeries) []keyedSeries { return g[:3] },
		"value":     func(g []keyedSeries) []keyedSeries { g[2].rs[4].Value = -1; return g },
		"reading order": func(g []keyedSeries) []keyedSeries {
			g[1].rs[0], g[1].rs[1] = g[1].rs[1], g[1].rs[0]
			return g
		},
		"short": func(g []keyedSeries) []keyedSeries { g[3].rs = g[3].rs[:19]; return g },
		"sid":   func(g []keyedSeries) []keyedSeries { g[3].id = g[3].id.WithLevel(2, 999); return g },
	}
	for name, f := range alter {
		_, g := prefixFixture()
		if err := checkPrefix(testSeed, want, 5, 20, f(g)); err == nil {
			t.Errorf("%s: altered prefix result accepted", name)
		}
	}
}

func TestCheckSummary(t *testing.T) {
	// The reference is the program's materialized summary over the
	// generated series, an implementation independent of wantSummary.
	ref, err := libdcdb.Summarize(series(testSeed, 5, 0, 1000))
	if err != nil {
		t.Fatal(err)
	}
	want := wantSummary(testSeed, 5, 0, 1000)
	if err := checkSummary(want, ref); err != nil {
		t.Fatalf("correct summary rejected: %v", err)
	}
	alter := map[string]func(*libdcdb.Aggregate){
		"count": func(a *libdcdb.Aggregate) { a.Count-- },
		"min":   func(a *libdcdb.Aggregate) { a.Min += 0.25 },
		"max":   func(a *libdcdb.Aggregate) { a.Max -= 0.25 },
		"mean":  func(a *libdcdb.Aggregate) { a.Mean *= 1.0000001 },
		"first": func(a *libdcdb.Aggregate) { a.First.Value++ },
		"last":  func(a *libdcdb.Aggregate) { a.Last.Timestamp-- },
	}
	for name, f := range alter {
		got := ref
		f(&got)
		if err := checkSummary(want, got); err == nil {
			t.Errorf("%s: altered summary accepted", name)
		}
	}
}

func TestCheckDownsample(t *testing.T) {
	from, to := tsOf(1, 100), tsOf(1, 100+recentWindow-1)
	good := func() []core.Reading {
		return libdcdb.Downsample(series(testSeed, 1, 100, recentWindow), recentPoints)
	}
	if err := checkDownsample(from, to, recentPoints, good()); err != nil {
		t.Fatalf("correct downsample rejected: %v", err)
	}
	alter := map[string]func([]core.Reading) []core.Reading{
		"too many": func(rs []core.Reading) []core.Reading {
			return append(rs, core.Reading{Timestamp: to, Value: 1})
		},
		"before window": func(rs []core.Reading) []core.Reading { rs[0].Timestamp = from - 1; return rs },
		"after window":  func(rs []core.Reading) []core.Reading { rs[len(rs)-1].Timestamp = to + 1; return rs },
		"order":         func(rs []core.Reading) []core.Reading { rs[0], rs[1] = rs[1], rs[0]; return rs },
		"empty":         func([]core.Reading) []core.Reading { return nil },
	}
	for name, f := range alter {
		if err := checkDownsample(from, to, recentPoints, f(good())); err == nil {
			t.Errorf("%s: altered downsample accepted", name)
		}
	}
}

func TestCheckAllValues(t *testing.T) {
	newest := constSeries(0, 2)
	if err := checkAllValues(divergentReadings, 2, newest); err != nil {
		t.Fatalf("newest write rejected: %v", err)
	}
	stale := constSeries(0, 2)
	stale[10].Value = 1
	if err := checkAllValues(divergentReadings, 2, stale); err == nil {
		t.Error("stale reading accepted")
	}
	if err := checkAllValues(divergentReadings, 2, newest[1:]); err == nil {
		t.Error("short read accepted")
	}
}

func TestCheckAgent(t *testing.T) {
	ok := collectagent.Stats{Messages: 10, Readings: 600}
	if err := checkAgent(ok, 10, 600); err != nil {
		t.Fatalf("matching stats rejected: %v", err)
	}
	for name, st := range map[string]collectagent.Stats{
		"lost message": {Messages: 9, Readings: 540},
		"lost reading": {Messages: 10, Readings: 599},
		"error":        {Messages: 10, Readings: 600, Errors: 1},
	} {
		if err := checkAgent(st, 10, 600); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSplitTS(t *testing.T) {
	for _, c := range [][2]int{{0, 0}, {4095, 0}, {17, 123456}} {
		if k, j := splitTS(tsOf(c[0], c[1])); k != c[0] || j != c[1] {
			t.Errorf("splitTS(tsOf(%d, %d)) = %d, %d", c[0], c[1], k, j)
		}
	}
}

// TestAnalyzeSelfTime checks parent linking and self time on a
// hand-built write path: a cluster write fanning out to two replicas,
// each with a node-side span inside its RPC span.
func TestAnalyzeSelfTime(t *testing.T) {
	spans := []span{
		{kind: kClusterWrite, node: -1, req: 1, start: 0, end: 100},
		{kind: kRPC, node: 0, req: 1, start: 10, end: 60},
		{kind: kRPC, node: 1, req: 1, start: 20, end: 80},
		{kind: kNode, node: 0, req: 1, start: 30, end: 40},
		{kind: kNode, node: 1, req: 1, start: 50, end: 70},
		{kind: kNode, node: 1, req: 2, start: 50, end: 70}, // another request: no parent
	}
	self := analyze(spans)
	wantParent := []int32{-1, 0, 0, 1, 2, -1}
	wantSelf := []int64{100 - 70, 50 - 10, 60 - 20, 10, 20, 20}
	for i := range spans {
		if spans[i].parent != wantParent[i] {
			t.Errorf("span %d: parent %d, want %d", i, spans[i].parent, wantParent[i])
		}
		if self[i] != wantSelf[i] {
			t.Errorf("span %d: self %d, want %d", i, self[i], wantSelf[i])
		}
	}
}
