package dppnet

import (
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dpp"
	"repro/internal/testutil"
)

// TestDrainBatchSessionAdvisory and TestDrainUnitSessionTerminal are the
// two rows of the drain policy (kind.drainSurfaces). On a batch stream the
// drain frame is advisory — the server keeps serving until the operator's
// deadline, and the session completes in place, byte-identical. The
// draining server refuses fresh opens with an error naming the drain.
func TestDrainBatchSessionAdvisory(t *testing.T) {
	before := runtime.NumGoroutine()
	env := newTestEnv(t, 120)
	spec := dpp.Spec{Spec: alignedSpec(), Readers: 1, Buffer: 2}

	h := startServer(t, env, dpp.Config{})
	rsRef, err := NewClient(h.addr).Open(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want := drainRemote(t, rsRef)

	rs, err := NewClient(h.addr).Open(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	got := consumeRemote(t, rs, 1)
	h.srv.Drain()
	got = append(got, drainRemote(t, rs)...)
	mustEqualBatches(t, got, want)
	if st := h.srv.Stats(); !st.Draining || st.DrainNotices < 1 {
		t.Fatalf("server stats %+v: want Draining, with the in-flight session sent its drain frame", st)
	}
	// A gateless draining server refuses fresh opens, with the error text
	// fleet clients match to route around it.
	if _, err := NewClient(h.addr).Open(context.Background(), spec); !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("open against a draining server = %v, want ErrRemote naming the drain", err)
	}

	h.shutdown(t)
	testutil.WaitForGoroutines(t, before)
}

// TestDrainUnitSessionTerminal: a file-unit stream surfaces the drain as
// ErrDrained — re-homing unit streams is the fleet multiplexer's job, which
// reroutes the shard's unconsumed files so nothing already served is
// refetched.
func TestDrainUnitSessionTerminal(t *testing.T) {
	before := runtime.NumGoroutine()
	env := newTestEnv(t, 160)
	files, err := env.catalog.AllFiles("tbl")
	if err != nil {
		t.Fatal(err)
	}
	spec := dpp.Spec{Spec: alignedSpec(), Files: files, Readers: 1, Buffer: 2}

	h := startServer(t, env, dpp.Config{})
	rus, err := NewClient(h.addr).OpenUnits(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	last, err := rus.NextPiece(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	h.srv.Drain()
	for {
		p, err := rus.NextPiece(context.Background())
		if err == nil {
			last = p
			continue
		}
		if errors.Is(err, ErrDrained) {
			break
		}
		if err == io.EOF {
			t.Fatal("unit stream reached EOF without surfacing the drain")
		}
		t.Fatalf("NextPiece after Drain = %v, want ErrDrained", err)
	}
	// The server keeps serving after the notice, and the stream ends between
	// files: the last piece delivered closed its file.
	if last.Tail == nil {
		t.Fatalf("the drain surfaced inside file %d (%s), after a batch", last.Index, last.File)
	}
	rus.Close()

	h.shutdown(t)
	testutil.WaitForGoroutines(t, before)
}
