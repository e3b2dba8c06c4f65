package dppnet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dpp"
	"repro/internal/dpp/landing"
	"repro/internal/etl"
	"repro/internal/testutil"
)

// landLive appends freshly generated samples to env's table through a
// landing.Writer — small sealed files on a new hour, the way a live
// partition grows under a tailing session.
func landLive(t testing.TB, env *testEnv, hour int64, sessions int) int {
	t.Helper()
	gen := datagen.NewGenerator(env.schema, datagen.GeneratorConfig{
		Sessions: sessions, MeanSamplesPerSession: 6, Seed: 1234 + hour,
	})
	samples := etl.ClusterBySession(gen.GeneratePartition())
	w, err := landing.NewWriter(landing.Config{
		Store: env.store, Catalog: env.catalog, Table: "tbl", Schema: env.schema,
		FlushRows: 96,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(hour, samples...); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return len(samples)
}

// TestRemoteFollowMatchesFrozen is the Follow determinism contract at
// the network boundary (run under -race in CI): a remote Follow session
// opened before files land observes the landings mid-stream, and the
// batches it delivers are byte-identical to a cold local session opened
// on the frozen publish-order file list after the fact.
func TestRemoteFollowMatchesFrozen(t *testing.T) {
	before := runtime.NumGoroutine()

	env := newTestEnv(t, 40)
	h := startServer(t, env, dpp.Config{})

	rs, err := NewClient(h.addr).Open(context.Background(), dpp.Spec{Spec: alignedSpec(), Follow: true})
	if err != nil {
		t.Fatal(err)
	}

	// Land two live hours while the session tails. Total rows decide how
	// many full batches the open-ended stream owes before EndFollow.
	total := len(env.samples)
	total += landLive(t, env, 3600, 25)
	total += landLive(t, env, 7200, 25)
	batchSize := alignedSpec().BatchSize
	full := total / batchSize

	var gotEnc [][]byte
	for len(gotEnc) < full {
		b, err := rs.Next(context.Background())
		if err != nil {
			t.Fatalf("batch %d: %v", len(gotEnc), err)
		}
		var buf bytes.Buffer
		if err := b.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		gotEnc = append(gotEnc, buf.Bytes())
	}
	// End the tail; the stream flushes any short tail batch and EOFs.
	rs.EndFollow()
	rows := full * batchSize
	for {
		b, err := rs.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := b.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		gotEnc = append(gotEnc, buf.Bytes())
		rows += b.Size
	}
	if rows != total {
		t.Fatalf("follow stream delivered %d rows, landed %d", rows, total)
	}
	rs.Close()

	// Freeze the prefix: the publish-sequence order is exactly the order
	// the Follow session emitted, so a cold session on that explicit file
	// list must produce the identical bytes.
	pubs, err := env.catalog.PublishedFiles("tbl", 0)
	if err != nil {
		t.Fatal(err)
	}
	files := make([]string, len(pubs))
	for i, pf := range pubs {
		files[i] = pf.Path
	}
	localSvc, err := dpp.New(dpp.Config{Backend: env.store, Catalog: env.catalog})
	if err != nil {
		t.Fatal(err)
	}
	defer localSvc.Close()
	sess, err := localSvc.Open(context.Background(), dpp.Spec{Spec: alignedSpec(), Files: files})
	if err != nil {
		t.Fatal(err)
	}
	wantEnc := drainLocal(t, sess)

	if len(gotEnc) != len(wantEnc) || len(wantEnc) == 0 {
		t.Fatalf("follow stream produced %d batches, frozen prefix %d (nonzero)", len(gotEnc), len(wantEnc))
	}
	for i := range wantEnc {
		if !bytes.Equal(gotEnc[i], wantEnc[i]) {
			t.Fatalf("batch %d differs between follow stream and frozen prefix", i)
		}
	}

	h.shutdown(t)
	testutil.WaitForGoroutines(t, before)
}

// TestRemoteFollowEndFollowDrainsToEOF: ending the tail immediately —
// before any live landing — drains the snapshot prefix to a clean EOF
// with final stats, the plain "tail of a static table" case.
func TestRemoteFollowEndFollowDrainsToEOF(t *testing.T) {
	env := newTestEnv(t, 40)
	h := startServer(t, env, dpp.Config{})

	rs, err := NewClient(h.addr).Open(context.Background(), dpp.Spec{Spec: alignedSpec(), Follow: true})
	if err != nil {
		t.Fatal(err)
	}
	rs.EndFollow()
	enc := drainRemote(t, rs)
	if len(enc) == 0 {
		t.Fatal("ended follow session delivered no batches from the snapshot prefix")
	}
	if _, ok := rs.Stats(); !ok {
		t.Fatal("stats missing after clean follow EOF")
	}
}

// TestFollowResumeRejected: Follow composes with neither resume
// (client-side refusal, before any dial) nor the file-unit merge
// (server-side handshake refusal).
func TestFollowResumeRejected(t *testing.T) {
	env := newTestEnv(t, 10)
	h := startServer(t, env, dpp.Config{})

	resuming := NewClient(h.addr)
	resuming.Resume.MaxAttempts = 3
	if _, err := resuming.Open(context.Background(), dpp.Spec{Spec: alignedSpec(), Follow: true}); err == nil ||
		!strings.Contains(err.Error(), "follow") {
		t.Fatalf("resuming client opened a follow session: %v", err)
	}
	files, err := env.catalog.AllFiles("tbl")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(h.addr).OpenUnits(context.Background(), dpp.Spec{Spec: alignedSpec(), Files: files, Follow: true}); !errors.Is(err, ErrRemote) ||
		!strings.Contains(err.Error(), "follow") {
		t.Fatalf("server admitted a file-unit follow session: %v", err)
	}
}
