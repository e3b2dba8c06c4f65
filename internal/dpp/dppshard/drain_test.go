package dppshard_test

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dpp"
	"repro/internal/dpp/dppnet"
	"repro/internal/dpp/dppshard"
	"repro/internal/dwrf"
	"repro/internal/etl"
	"repro/internal/lakefs"
	"repro/internal/testutil"
)

// newDrainEnv lands a larger partition (~38 files at 64 rows each) than
// newFleetEnv: the drain test's window math needs each of two shards to
// own more files than the merge can possibly have pulled at the drain
// point, so the drained shard is deterministically still mid-stream.
func newDrainEnv(t testing.TB) *fleetEnv {
	t.Helper()
	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 2, UserElem: 3, Item: 2, Dense: 4, SeqLen: 24, Seed: 11,
	})
	gen := datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: 400, MeanSamplesPerSession: 6, Seed: 99,
	})
	samples := etl.ClusterBySession(gen.GeneratePartition())
	store := lakefs.NewStore()
	catalog := lakefs.NewCatalog()
	if _, err := dwrf.WritePartition(store, catalog, "tbl", 0, schema, samples,
		dwrf.TableOptions{RowsPerFile: 64, Writer: dwrf.WriterOptions{StripeRows: 32}}); err != nil {
		t.Fatal(err)
	}
	files, err := catalog.AllFiles("tbl")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 24 {
		t.Fatalf("drain env landed only %d files; the window math needs the larger shard to own > 10", len(files))
	}
	return &fleetEnv{store: store, catalog: catalog, files: files}
}

// TestFleetDrainHandsOffMidStream is the drain-during-stream contract:
// one of two shards enters drain mode mid-scan, its stream gets the
// drain notice, and the mux hands exactly the shard's *unconsumed* files
// to the survivor — merged stream byte-identical to the serial
// reference, no already-served file refetched, and the handoff counted
// as a drain handoff rather than a shard death. A fresh Open afterwards
// routes around the draining shard entirely.
//
// The same window math as TestShardRestartRejoinsViaResume makes the
// mid-stream guarantee deterministic: with Readers=Buffer=1 the servers
// have together sent at most consumed+6 units, and the larger shard of
// two owns at least half of ~38 files, so at drain point 2 its stream
// cannot have ended.
func TestFleetDrainHandsOffMidStream(t *testing.T) {
	env := newDrainEnv(t)
	wantEnc, _ := serialReference(t, env, alignedSpec())
	if len(wantEnc) < 24 {
		t.Fatalf("reference stream has only %d batches", len(wantEnc))
	}
	before := runtime.NumGoroutine()
	shards := startFleet(t, env, 2)
	fleet, err := dppshard.New(dppshard.Config{
		Addrs:  addrsOf(shards),
		Resume: dppnet.ResumePolicy{MaxAttempts: 10, BaseDelay: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := fleet.Open(context.Background(), dpp.Spec{
		Spec: alignedSpec(), Files: env.files, Readers: 1, Buffer: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The victim is whichever shard owns more files: it must still be
	// mid-stream when the drain notice lands (it owns >= half the files,
	// far past what the merge can have pulled by batch 2).
	open, _ := sess.ShardStats()
	if len(open) != 2 {
		t.Fatalf("fleet opened %d shard streams, want 2", len(open))
	}
	victimAddr := open[0].Addr
	if open[1].Files > open[0].Files {
		victimAddr = open[1].Addr
	}
	var victim, survivor *shard
	for _, s := range shards {
		if s.addr == victimAddr {
			victim = s
		} else {
			survivor = s
		}
	}

	const drainAt = 2
	var got [][]byte
	for {
		b, err := sess.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("after %d batches: %v", len(got), err)
		}
		var buf bytes.Buffer
		if err := b.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		got = append(got, buf.Bytes())
		if len(got) == drainAt {
			victim.srv.Drain()
		}
	}
	mustEqualStreams(t, got, wantEnc)

	if n := sess.DrainHandoffs(); n < 1 {
		t.Fatalf("DrainHandoffs = %d, want >= 1 (the victim was mid-stream at the drain)", n)
	}
	stats, reroutes := sess.ShardStats()
	if reroutes != 0 {
		t.Fatalf("reroutes = %d, want 0: a drain handoff is planned movement, not a shard death", reroutes)
	}
	var drainedStat *dppshard.ShardStat
	var handoffFiles, servedTotal int
	for i := range stats {
		st := &stats[i]
		servedTotal += st.Served
		if st.Failed {
			t.Fatalf("shard stream %+v marked failed; nothing died in this test", st)
		}
		switch {
		case st.Drained:
			if drainedStat != nil {
				t.Fatalf("two drained shard streams; only %s was drained", victimAddr)
			}
			drainedStat = st
		case st.Addr == victimAddr:
			t.Fatalf("stream %+v reopened on the draining shard", st)
		default:
			handoffFiles += st.Files
		}
	}
	if drainedStat == nil || drainedStat.Addr != victimAddr {
		t.Fatalf("no drained stream recorded for victim %s in %+v", victimAddr, stats)
	}
	// Exactly the victim's unconsumed files moved: the survivor's streams
	// hold its own original files plus the drained remainder, so their
	// file counts must sum to everything the victim did not serve.
	if want := len(env.files) - drainedStat.Served; handoffFiles != want {
		t.Fatalf("survivor streams hold %d files, want %d (own share + the drained shard's unserved remainder)", handoffFiles, want)
	}
	if moved := drainedStat.Files - drainedStat.Served; moved < 1 {
		t.Fatalf("drained shard served all %d of its files; the drain landed too late to hand anything off", drainedStat.Files)
	}
	if servedTotal != len(env.files) {
		t.Fatalf("shard streams served %d units total, want exactly %d (each file merged once, no refetch)", servedTotal, len(env.files))
	}
	if st := victim.srv.Stats(); !st.Draining || st.DrainNotices < 1 {
		t.Fatalf("victim server stats %+v: want Draining with >= 1 drain notice", st)
	}
	sess.Close()

	// A fresh Open while the victim still drains routes every file to
	// the survivor — the draining refusal is a route-around, not an
	// error — and still reproduces the reference stream.
	sess2, err := fleet.Open(context.Background(), dpp.Spec{
		Spec: alignedSpec(), Files: env.files, Readers: 1, Buffer: 1,
	})
	if err != nil {
		t.Fatalf("open against a half-draining fleet: %v", err)
	}
	mustEqualStreams(t, drainFleet(t, sess2), wantEnc)
	stats2, _ := sess2.ShardStats()
	for _, st := range stats2 {
		if st.Addr != survivor.addr {
			t.Fatalf("post-drain open routed stream %+v to a non-survivor", st)
		}
	}
	sess2.Close()

	for _, s := range shards {
		s.shutdown()
	}
	testutil.WaitForGoroutines(t, before)
}
