package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// stream serves one canned /query?stream=1 reply body.
func stream(t *testing.T, body string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprint(w, body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

const honest = `{"seed":4,"marginal":30,"spread_lb":1.5}
{"seed":9,"marginal":12,"spread_lb":2.1}
{"strategy":"irr","seeds":[4,9],"marginals":[30,12],"est_spread":2.1,"elapsed_ms":0.5,"partial":false,"done":true}
`

func TestGradeCountsTamperedReplies(t *testing.T) {
	req := request{Topics: []int{1, 2}, K: 2, Strategy: "irr"}
	answers := map[string]answer{req.key(): {seeds: []uint32{4, 9}, marg: []int{30, 12}}}
	cases := []struct {
		name, body string
		fails      bool
	}{
		{"honest", honest, false},
		{"tampered seed", strings.ReplaceAll(honest, "9", "8"), true},
		{"tampered marginal", strings.ReplaceAll(honest, "12", "13"), true},
		{"terminal differs from stream", strings.Replace(honest, `"seeds":[4,9]`, `"seeds":[4,7]`, 1), true},
		{"partial", strings.Replace(honest, `"partial":false`, `"partial":true`, 1), true},
		{"error record", `{"seed":4,"marginal":30,"spread_lb":1.5}` + "\n" + `{"done":true,"error":"boom"}` + "\n", true},
		{"no done record", `{"seed":4,"marginal":30,"spread_lb":1.5}` + "\n", true},
		{"no seed record", `{"strategy":"irr","seeds":[4,9],"marginals":[30,12],"done":true}` + "\n", true},
	}
	for _, tc := range cases {
		srv := stream(t, tc.body)
		recs := []record{send(srv.Client(), srv.URL, 0, req)}
		failed := grade(recs, answers)
		if got := failed == 1; got != tc.fails {
			t.Errorf("%s: counted failed=%d (%q), want failure=%v", tc.name, failed, recs[0].fail, tc.fails)
		}
	}
}

func TestGradeCountsBadStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"no"}`, http.StatusUnprocessableEntity)
	}))
	defer srv.Close()
	req := request{Topics: []int{1}, K: 1, Strategy: "rr"}
	recs := []record{send(srv.Client(), srv.URL, 0, req)}
	if grade(recs, map[string]answer{req.key(): {seeds: []uint32{1}, marg: []int{1}}}) != 1 {
		t.Fatalf("a 422 reply was not counted as failed")
	}
}

func TestTheorem3FlagsMarginalMismatch(t *testing.T) {
	rr := request{Topics: []int{3}, K: 2, Strategy: "rr"}
	irr := request{Topics: []int{3}, K: 2, Strategy: "irr"}
	answers := map[string]answer{
		rr.key():  {seeds: []uint32{1, 2}, marg: []int{5, 5}},
		irr.key(): {seeds: []uint32{2, 1}, marg: []int{5, 5}}, // a tie: seeds may swap
	}
	if err := theorem3(answers, []request{rr, irr}); err != nil {
		t.Fatalf("tied seeds flagged: %v", err)
	}
	answers[irr.key()] = answer{seeds: []uint32{1, 2}, marg: []int{5, 4}}
	if err := theorem3(answers, []request{rr, irr}); err == nil {
		t.Fatal("differing marginals not flagged")
	}
}

func TestLedgerSplitsTheSpan(t *testing.T) {
	spans := []span{
		{layer: layerRemote, start: 10, end: 30},
		{layer: layerRemote, start: 20, end: 40}, // concurrent fetch to the other backend
		{layer: layerDisk, start: 60, end: 70},
	}
	l := ledgerOf("rr", 0, 100, spans, nil)
	if l.layer[layerRemote] != 30 || l.layer[layerDisk] != 10 || l.self != 60 {
		t.Fatalf("ledger %+v, want remote 30, disk 10, self 60", l)
	}
}

func TestReconcileComparesWithThePlainReplica(t *testing.T) {
	spans := []span{{layer: layerDisk, start: 60, end: 70}}
	ledgers := []queryLedger{ledgerOf("rr", 0, 100, spans, nil), ledgerOf("irr", 0, 100, nil, nil)}
	if e := reconcileErr(ledgers, []time.Duration{100, 100}); e != 0 {
		t.Fatalf("ledgers equal to the plain spans: reconcile error %v, want 0", e)
	}
	// Tracing made each query 10% slower than its untraced twin.
	if e := reconcileErr(ledgers, []time.Duration{90, 92}); e < 0.08 || e <= maxReconcile {
		t.Fatalf("traced ledgers 10%% over the plain spans: reconcile error %v, want it over %v", e, maxReconcile)
	}
}
