package dpp_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/dpp"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// rendezvousStore lets stripe reads through only once stripes of two
// different files are being read at the same time: a scan that fills one
// file at a time never gets past its first. A read that waits out the
// timeout fails the scan rather than hanging the test.
type rendezvousStore struct {
	storage.Backend
	timeout time.Duration

	mu      sync.Mutex
	reads   map[string]int  // ranged reads seen per file; the first two are dwrf.Open's trailer and footer
	reading map[string]bool // files whose stripes have been asked for
	met     chan struct{}   // closed when the second such file arrives
}

func newRendezvousStore(b storage.Backend, timeout time.Duration) *rendezvousStore {
	return &rendezvousStore{Backend: b, timeout: timeout,
		reads: make(map[string]int), reading: make(map[string]bool), met: make(chan struct{})}
}

func (s *rendezvousStore) ReadRange(path string, off, n int64) ([]byte, error) {
	s.mu.Lock()
	s.reads[path]++
	stripe := s.reads[path] > 2
	if stripe && !s.reading[path] {
		s.reading[path] = true
		if len(s.reading) == 2 {
			close(s.met)
		}
	}
	s.mu.Unlock()
	if stripe {
		select {
		case <-s.met:
		case <-time.After(s.timeout):
			return nil, fmt.Errorf("stripe read of %s waited %v and no second file was read beside it", path, s.timeout)
		}
	}
	return s.Backend.ReadRange(path, off, n)
}

// TestSharedSessionIsAPool: a ShareScans session is the same worker pool
// any session is. Cold, with Readers: 3, over a store that serves stripes
// only while two different files are being read at once, a misaligned scan
// — where file i+1 cannot even be looked up before file i's row count is
// known — must still overlap its fills (the count travels down the carry
// chain from the footer, before any stripe is fetched), finish
// byte-identical to the serial reference with a serial scan's counters and
// one cache miss per file, report its three workers and the merge's real
// starvation, and resize.
func TestSharedSessionIsAPool(t *testing.T) {
	env := newTestEnv(t, 200)
	spec := kjtSpec() // batch 48 over 256-row files: rows carry into every file but the first
	wantEnc, wantStats := serialReference(t, env, spec)
	files, err := env.catalog.AllFiles(spec.Table)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Skip("need at least 3 files to overlap fills")
	}

	svc, err := dpp.New(dpp.Config{Backend: newRendezvousStore(env.store, 20*time.Second), Catalog: env.catalog})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sess, err := svc.Open(context.Background(), dpp.Spec{Spec: spec, ShareScans: true, Readers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if w := sess.Stats().Scheduler.Workers; w != 3 {
		t.Fatalf("ShareScans session with Readers: 3 reports %d workers", w)
	}

	first, err := sess.Next(context.Background())
	if err != nil {
		t.Fatalf("first batch: %v", err)
	}
	if got := sess.Resize(2); got != 2 {
		t.Fatalf("Resize(2) = %d", got)
	}
	var buf bytes.Buffer
	if err := first.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	gotEnc := append([][]byte{buf.Bytes()}, drainSession(t, sess)...)

	if len(gotEnc) != len(wantEnc) {
		t.Fatalf("pooled shared session produced %d batches, serial reference %d", len(gotEnc), len(wantEnc))
	}
	for i := range wantEnc {
		if !bytes.Equal(gotEnc[i], wantEnc[i]) {
			t.Fatalf("batch %d differs from serial reference", i)
		}
	}
	st := sess.Stats()
	if got, want := counters(st.Reader), counters(wantStats); got != want {
		t.Fatalf("cold pooled counters %v, serial reference %v", got, want)
	}
	if c := st.Cache; c.Misses != int64(len(files)) || c.Hits != 0 {
		t.Fatalf("cold pooled cache traffic %+v, want %d misses (one lookup per file)", c, len(files))
	}
	if sc := st.Scheduler; sc.Workers != 2 || sc.ScaleDowns != 1 || sc.ScaleUps != 0 || sc.WorkerStall <= 0 {
		t.Fatalf("scheduler stats %+v, want 2 workers after one scale-down and nonzero worker stall", sc)
	}
	if got := svc.Stats().Scheduler; got.ScaleDowns != 1 || got.WorkerStall <= 0 {
		t.Fatalf("service scheduler stats %+v do not include the shared session", got)
	}
}

// TestSlowTrainerNeverStallsAnothersScan: a scan is served while it is
// computed, but never at the pace of the session computing it. S1 takes one
// batch and stops pulling; its worker is inside the ScanCache's compute of
// the first file — the read of the file's last stripe is parked — with S1's
// output buffer full behind it. S2, asking for the same key, coalesces onto
// that compute. Released, the compute must run to its end whatever S1's
// consumer does, and S2 must be served the file and reach io.EOF with the
// serial reference's stream. It would hang if the memo handed S1's batches
// to S1's bounded buffer from inside the single-flight.
func TestSlowTrainerNeverStallsAnothersScan(t *testing.T) {
	env := newStripedEnv(t)
	spec := dedupSpec()
	wantEnc, _ := serialReference(t, env, spec)
	files, err := env.catalog.AllFiles(spec.Table)
	if err != nil {
		t.Fatal(err)
	}
	off, _ := stripeRange(t, env.store, files[0], 7) // the last of eight: three batches are cut before it
	store := &parkedStripeStore{Backend: env.store, path: files[0], off: off,
		arrived: make(chan struct{}), release: make(chan struct{})}
	clock := testutil.NewClock(time.Unix(0, 0))
	svc, err := dpp.New(dpp.Config{Backend: store, Catalog: env.catalog, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// A test that fails here fails by this deadline, not by hanging.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	shared := dpp.Spec{Spec: spec, ShareScans: true, Buffer: 1}
	s1, err := svc.Open(ctx, shared)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	var release sync.Once
	defer release.Do(func() { close(store.release) }) // a failure must not leave a worker parked under Close
	if _, err := s1.Next(ctx); err != nil {
		t.Fatalf("S1's first batch: %v", err)
	}
	select {
	case <-store.arrived: // S1 is computing the file: past seven stripes, parked on the eighth
	case <-ctx.Done():
		t.Fatal("S1's read of the file's last stripe never arrived")
	}

	s2, err := svc.Open(ctx, shared)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// S2's cutter starves for the file its worker is waiting on S1 for.
	testutil.Eventually(t, func() bool {
		clock.Advance(time.Second)
		return s2.Stats().Scheduler.WorkerStall > 0
	}, "S2 never waited for the file S1 is computing")
	release.Do(func() { close(store.release) })

	var gotEnc [][]byte
	for {
		b, err := s2.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("S2 after %d batches, with S1's trainer stopped: %v", len(gotEnc), err)
		}
		gotEnc = append(gotEnc, encodeBatch(t, b))
	}
	if len(gotEnc) != len(wantEnc) {
		t.Fatalf("S2: %d batches, serial reference %d", len(gotEnc), len(wantEnc))
	}
	for i := range wantEnc {
		if !bytes.Equal(gotEnc[i], wantEnc[i]) {
			t.Fatalf("S2: batch %d differs from the serial reference", i)
		}
	}
	if c := s2.Stats().Cache; c.Hits < 1 {
		t.Fatalf("S2's cache traffic %+v: it was not served the file S1 computed", c)
	}
}
