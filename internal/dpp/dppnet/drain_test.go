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

// TestDrainBatchSessionAdvisory and TestDrainUnitSessionRecorded are the
// one drain rule seen from its two consumers. The server keeps serving
// after the drain frame until the operator's deadline, and the stream
// records it: a remote session, a fleet of one with nowhere to hand off
// to, rides the drain out and completes in place, byte-identical. The
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

// TestDrainUnitSessionRecorded: a unit stream records the drain and never
// ends because of it — the server keeps serving to the end of the stream —
// and the record is there at a file boundary, the closing record where a
// fleet's pump reads it and re-routes the shard's unconsumed files, so
// nothing already served is refetched.
func TestDrainUnitSessionRecorded(t *testing.T) {
	before := runtime.NumGoroutine()
	env := newTestEnv(t, 160)
	files, err := env.catalog.AllFiles("tbl")
	if err != nil {
		t.Fatal(err)
	}
	spec := dpp.Spec{Spec: alignedSpec(), Files: files, Readers: 1, Buffer: 2}

	h := startServer(t, env, dpp.Config{})
	rus, err := NewClient(h.addr).OpenUnits(context.Background(), spec, every(len(spec.Files)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rus.NextPiece(context.Background()); err != nil {
		t.Fatal(err)
	}
	h.srv.Drain()
	closedDrained, closed := 0, 0
	for {
		p, err := rus.NextPiece(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("NextPiece after Drain = %v, want the stream served to io.EOF", err)
		}
		if p.Tail != nil {
			closed++
			if rus.Drained() {
				closedDrained++
			}
		}
	}
	// The server keeps serving after the notice: every file arrives, and the
	// drain is on record at a closing record before the end.
	if closed != len(files) || closedDrained == 0 {
		t.Fatalf("the stream closed %d of %d files, %d of them with the drain on record; want all, and the drain recorded at one", closed, len(files), closedDrained)
	}
	rus.Close()

	h.shutdown(t)
	testutil.WaitForGoroutines(t, before)
}
