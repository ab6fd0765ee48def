package rrindex

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"kbtim/internal/codec"
	"kbtim/internal/diskio"
	"kbtim/internal/prop"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// gatedReader parks every read after the first blockAfter query reads until
// the gate opens — the blocking reader of the cancellation tests.
type gatedReader struct {
	inner   diskio.Segmented
	reads   atomic.Int64
	armed   atomic.Bool
	after   int64
	entered chan struct{}
	gate    chan struct{}
}

func newGatedReader(inner diskio.Segmented, after int64) *gatedReader {
	return &gatedReader{
		inner:   inner,
		after:   after,
		entered: make(chan struct{}, 64),
		gate:    make(chan struct{}),
	}
}

func (g *gatedReader) ReadSegment(off, length int64) ([]byte, error) {
	if g.armed.Load() && g.reads.Add(1) > g.after {
		g.entered <- struct{}{}
		<-g.gate
	}
	return g.inner.ReadSegment(off, length)
}

func (g *gatedReader) Size() int64              { return g.inner.Size() }
func (g *gatedReader) Counter() *diskio.Counter { return g.inner.Counter() }

// TestQueryCtxCanceledAtKeywordBoundary: a client that disconnects while
// keyword 1's artifacts are mid-fetch sees that fetch finish and the query
// stop at the next keyword-load boundary — keyword 2 is never read.
func TestQueryCtxCanceledAtKeywordBoundary(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Build(&buf, figure1(t), prop.IC{}, figure1Profiles(t), testConfig(), BuildOptions{
		Compression: codec.Delta,
	}); err != nil {
		t.Fatal(err)
	}
	g := newGatedReader(diskio.NewMem(buf.Bytes(), nil), 1)
	idx, err := Open(g) // Open's reads happen un-armed
	if err != nil {
		t.Fatal(err)
	}
	g.armed.Store(true) // query read 1 (kw 1 sets) passes, read 2 (kw 1 inv) parks

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := QueryMultiStreamCtx(ctx, func(int) *Index { return idx }, topic.Query{Topics: []int{topicMusic, topicBook}, K: 2}, wris.StreamOptions{})
		done <- err
	}()
	select {
	case <-g.entered: // keyword 1's inverted-region fetch is in flight
	case <-time.After(5 * time.Second):
		t.Fatal("query never reached the gated read")
	}
	cancel()
	close(g.gate)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled query did not return")
	}
	// Keyword 1's two artifacts only: the boundary check stopped the query
	// before keyword 2's sets fetch.
	if n := g.reads.Load(); n != 2 {
		t.Fatalf("canceled query performed %d reads, want 2 (keyword 1's sets + inverted region)", n)
	}
}

// TestQueryCtxPreCanceled: a context canceled before dispatch fails fast
// with no I/O at all.
func TestQueryCtxPreCanceled(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Build(&buf, figure1(t), prop.IC{}, figure1Profiles(t), testConfig(), BuildOptions{
		Compression: codec.Delta,
	}); err != nil {
		t.Fatal(err)
	}
	g := newGatedReader(diskio.NewMem(buf.Bytes(), nil), 0)
	idx, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	g.armed.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := QueryMultiStreamCtx(ctx, func(int) *Index { return idx }, topic.Query{Topics: []int{topicMusic}, K: 2}, wris.StreamOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := g.reads.Load(); n != 0 {
		t.Fatalf("pre-canceled query performed %d reads, want 0", n)
	}
}
