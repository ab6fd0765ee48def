package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

func universe(n int) []int {
	u := make([]int, n)
	for i := range u {
		u[i] = i
	}
	return u
}

// sequence returns the first n queries of a workload's sequence, encoded
// exactly as the servers receive them.
func sequence(t *testing.T, w *workload, seed uint64, n int) []byte {
	t.Helper()
	g, err := newGenerator(w, seed, universe(dataSpec.topics))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range g.warmup() {
		enc.Encode(r)
	}
	for i := 0; i < n; i++ {
		enc.Encode(g.query(i))
	}
	return buf.Bytes()
}

func TestSequenceIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a := sequence(t, w, 7, 3000)
		if b := sequence(t, w, 7, 3000); !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different sequences", w.name)
		}
		if c := sequence(t, w, 8, 3000); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", w.name)
		}
	}
}

func TestSequenceShape(t *testing.T) {
	for _, w := range workloads {
		g, err := newGenerator(w, 3, universe(dataSpec.topics))
		if err != nil {
			t.Fatal(err)
		}
		starts := map[int]bool{}
		for i := 0; i < 3000; i++ {
			q := g.query(i)
			if len(q.Topics) != queryLen || q.K != queryK {
				t.Fatalf("%s query %d: %+v outside the workload's shape", w.name, i, q)
			}
			if !slices.IsSorted(q.Topics) || len(slices.Compact(slices.Clone(q.Topics))) != len(q.Topics) {
				t.Fatalf("%s query %d: topics %v not sorted and distinct", w.name, i, q.Topics)
			}
			for _, tp := range q.Topics {
				if !slices.Contains(g.pool(i), tp) {
					t.Fatalf("%s query %d: topic %d outside its pool %v", w.name, i, tp, g.pool(i))
				}
			}
			want := "irr"
			if w.rr && (!w.irr || i%2 == 0) {
				want = "rr"
			}
			if q.Strategy != want {
				t.Fatalf("%s query %d: strategy %s, want %s", w.name, i, q.Strategy, want)
			}
			starts[g.windowStart(i)] = true
			if w.window > 0 && g.windowStart(i) != (i/w.every)*w.step%dataSpec.topics {
				t.Fatalf("%s query %d: window starts at %d", w.name, i, g.windowStart(i))
			}
		}
		if w.window > 0 && len(starts) != dataSpec.topics/w.step {
			t.Errorf("%s: window visited %d positions, want all %d", w.name, len(starts), dataSpec.topics/w.step)
		}
	}
}

func TestHotWarmupCoversTheHotSpace(t *testing.T) {
	w, err := workloadByName("hot-mix")
	if err != nil {
		t.Fatal(err)
	}
	g, err := newGenerator(w, 1, universe(dataSpec.topics))
	if err != nil {
		t.Fatal(err)
	}
	warm := map[string]bool{}
	for _, r := range g.warmup() {
		warm[r.key()] = true
	}
	for i := 0; i < 5000; i++ {
		if q := g.query(i); !warm[q.key()] {
			t.Fatalf("query %d (%s) was not warmed up", i, q.key())
		}
	}
}
