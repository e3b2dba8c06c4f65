package dppshard_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dpp"
	"repro/internal/dpp/dppnet"
	"repro/internal/dpp/dppshard"
	"repro/internal/dpp/front"
	"repro/internal/dwrf"
	"repro/internal/etl"
	"repro/internal/lakefs"
	"repro/internal/reader"
	"repro/internal/testutil"
)

// newFleetEnv lands one clustered partition cut into many small files
// (64 rows each), so the scan shards across up to 8 servers with several
// files per shard. Batch size 64 divides the file size (aligned); 48
// does not (misaligned: rows carry across files and across shards).
type fleetEnv struct {
	store   *lakefs.Store
	catalog *lakefs.Catalog
	files   []string
}

func newFleetEnv(t testing.TB) *fleetEnv {
	t.Helper()
	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 2, UserElem: 3, Item: 2, Dense: 4, SeqLen: 24, Seed: 11,
	})
	gen := datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: 120, MeanSamplesPerSession: 6, Seed: 99,
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
	if len(files) < 10 {
		t.Fatalf("fleet env landed only %d files; sharding needs many", len(files))
	}
	return &fleetEnv{store: store, catalog: catalog, files: files}
}

func alignedSpec() reader.Spec {
	return reader.Spec{
		Table:          "tbl",
		BatchSize:      64,
		SparseFeatures: []string{"item_0", "item_1"},
		DedupSparseFeatures: [][]string{
			{"user_seq_0", "user_seq_1"},
			{"user_elem_0", "user_elem_1", "user_elem_2"},
		},
	}
}

// every is the served indices of a unit stream over all n files.
func every(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func misalignedSpec() reader.Spec {
	return reader.Spec{
		Table:     "tbl",
		BatchSize: 48,
		SparseFeatures: []string{
			"item_0", "item_1", "user_seq_0", "user_seq_1",
			"user_elem_0", "user_elem_1", "user_elem_2",
		},
		SparseTransforms: []reader.SparseTransform{
			reader.HashMod{Features: []string{"user_seq_0"}, TableSize: 1 << 20},
		},
	}
}

// shard is one live service + server pair of the test fleet.
type shard struct {
	svc  *dpp.Service
	srv  *dppnet.Server
	addr string
	once sync.Once
}

// kill force-closes the shard's server mid-stream (connections die, the
// service stays up); shutdown additionally closes the service. Both are
// safe to call repeatedly and in either order.
func (s *shard) kill() { s.once.Do(func() { s.srv.Close() }) }
func (s *shard) shutdown() {
	s.kill()
	s.svc.Close()
}

// startFleet brings up n shards over the shared store, each with its own
// service (own ScanCache — the fleet's cache is the sum of these).
func startFleet(t testing.TB, env *fleetEnv, n int) []*shard {
	t.Helper()
	listen := make([]string, n)
	for i := range listen {
		listen[i] = "127.0.0.1:0"
	}
	return startFleetOn(t, env, listen, 0)
}

// startFleetOn is startFleet on the given listen addresses, each shard's
// ScanCache budgeted at scanCacheBytes (0 = the service default).
func startFleetOn(t testing.TB, env *fleetEnv, listen []string, scanCacheBytes int64) []*shard {
	t.Helper()
	shards := make([]*shard, len(listen))
	for i := range shards {
		svc, err := dpp.New(dpp.Config{Backend: env.store, Catalog: env.catalog, ScanCacheBytes: scanCacheBytes})
		if err != nil {
			t.Fatal(err)
		}
		ln := relisten(t, listen[i])
		srv := dppnet.NewServer(svc)
		go srv.Serve(ln)
		shards[i] = &shard{svc: svc, srv: srv, addr: ln.Addr().String()}
		t.Cleanup(shards[i].shutdown)
	}
	return shards
}

func addrsOf(shards []*shard) []string {
	addrs := make([]string, len(shards))
	for i, s := range shards {
		addrs[i] = s.addr
	}
	return addrs
}

// serialReference runs one Reader serially over the whole table — the
// stream every fleet shape must match byte for byte.
func serialReference(t *testing.T, env *fleetEnv, spec reader.Spec) ([][]byte, reader.Stats) {
	t.Helper()
	r, err := reader.NewReader(env.store, spec)
	if err != nil {
		t.Fatal(err)
	}
	var enc [][]byte
	if err := r.Run(context.Background(), env.files, func(b *reader.Batch) error {
		var buf bytes.Buffer
		if err := b.Encode(&buf); err != nil {
			return err
		}
		enc = append(enc, buf.Bytes())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return enc, r.Stats()
}

func counters(s reader.Stats) [6]int64 {
	return [6]int64{s.ReadBytes, s.SentBytes, s.RowsDecoded, s.BatchesProduced, s.ConvertValues, s.ProcessOps}
}

func drainFleet(t *testing.T, sess *dppshard.Session) [][]byte {
	t.Helper()
	var enc [][]byte
	for {
		b, err := sess.Next(context.Background())
		if err == io.EOF {
			return enc
		}
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := b.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		enc = append(enc, buf.Bytes())
	}
}

func mustEqualStreams(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("fleet produced %d batches, serial reference %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("batch %d differs from serial reference", i)
		}
	}
}

// TestFleetMatchesSingleServer is the sharding determinism contract:
// the merged fleet stream is byte-identical to one serial scan for
// every shard count 1–8, across aligned, misaligned (batch boundaries
// cross file — and therefore shard — boundaries), and ShareScans specs.
// For a cold aligned fleet the aggregate reader counters are exactly
// the serial reference's: the shards plus the mux together did the same
// work once.
func TestFleetMatchesSingleServer(t *testing.T) {
	env := newFleetEnv(t)
	cases := []struct {
		name  string
		spec  reader.Spec
		share bool
	}{
		{"aligned", alignedSpec(), false},
		{"misaligned", misalignedSpec(), false},
		{"sharescans", alignedSpec(), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantEnc, wantStats := serialReference(t, env, tc.spec)
			for n := 1; n <= 8; n++ {
				shards := startFleet(t, env, n)
				fleet, err := dppshard.New(dppshard.Config{Addrs: addrsOf(shards)})
				if err != nil {
					t.Fatal(err)
				}
				sess, err := fleet.Open(context.Background(), dpp.Spec{
					Spec: tc.spec, Files: env.files, ShareScans: tc.share,
				})
				if err != nil {
					t.Fatalf("%d shards: %v", n, err)
				}
				got := drainFleet(t, sess)
				mustEqualStreams(t, got, wantEnc)
				st := sess.Stats()
				if tc.name == "aligned" {
					if counters(st.Reader) != counters(wantStats) {
						t.Fatalf("%d shards: aggregate counters %v, serial %v", n, counters(st.Reader), counters(wantStats))
					}
				}
				if _, reroutes := sess.ShardStats(); reroutes != 0 {
					t.Fatalf("%d shards: %d reroutes on a healthy fleet", n, reroutes)
				}
				sess.Close()
				for _, s := range shards {
					s.shutdown()
				}
			}
		})
	}
}

// TestFleetCachePartitioning pins the capacity story: under ShareScans
// every file is decoded (a cache miss) on exactly the one shard routing
// assigned it, and a second fleet pass over the same spec hits every
// shard's cache — the fleet cache is partitioned, not replicated.
func TestFleetCachePartitioning(t *testing.T) {
	env := newFleetEnv(t)
	shards := startFleet(t, env, 4)
	fleet, err := dppshard.New(dppshard.Config{Addrs: addrsOf(shards)})
	if err != nil {
		t.Fatal(err)
	}
	spec := dpp.Spec{Spec: alignedSpec(), Files: env.files, ShareScans: true}
	wantEnc, _ := serialReference(t, env, alignedSpec())

	sess, err := fleet.Open(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualStreams(t, drainFleet(t, sess), wantEnc)
	stats, _ := sess.ShardStats()
	sess.Close()

	var files, misses, hits int64
	for _, st := range stats {
		if !st.StatsOK {
			t.Fatalf("shard %s lost its stats frame on a healthy fleet", st.Addr)
		}
		if st.Stats.Cache.Misses != int64(st.Files) {
			t.Fatalf("shard %s decoded %d files but was routed %d — files decoded off their owning shard",
				st.Addr, st.Stats.Cache.Misses, st.Files)
		}
		files += int64(st.Files)
		misses += st.Stats.Cache.Misses
		hits += st.Stats.Cache.Hits
	}
	if files != int64(len(env.files)) || misses != int64(len(env.files)) || hits != 0 {
		t.Fatalf("cold pass: %d files routed, %d misses, %d hits; want %d/%d/0",
			files, misses, hits, len(env.files), len(env.files))
	}

	// Second epoch: same spec, same routing, every file already resident
	// on its owning shard.
	sess2, err := fleet.Open(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualStreams(t, drainFleet(t, sess2), wantEnc)
	stats2, _ := sess2.ShardStats()
	sess2.Close()
	misses, hits = 0, 0
	for _, st := range stats2 {
		misses += st.Stats.Cache.Misses
		hits += st.Stats.Cache.Hits
	}
	if misses != 0 || hits != int64(len(env.files)) {
		t.Fatalf("warm pass: %d misses, %d hits; want 0/%d", misses, hits, len(env.files))
	}
}

// quarterSpec is alignedSpec cut four batches to the file: a unit stream
// over it is four batch frames and a closing record per file, so a shard
// that dies at a random point is, five times in six, inside a file.
func quarterSpec() reader.Spec {
	spec := alignedSpec()
	spec.BatchSize = 16
	return spec
}

// carriedQuarterSpec is misalignedSpec cut about three batches to the file,
// carrying 4, 8, 12, 16 rows and none in turn into the files: most files of
// a unit stream over it open with a head, so a shard that dies at a random
// point is most often inside a file entered with a carry.
func carriedQuarterSpec() reader.Spec {
	spec := misalignedSpec()
	spec.BatchSize = 20
	return spec
}

// TestFleetShardKillDeterminism is the failover half of the contract
// (run under -race in CI): a randomly chosen shard is killed at a
// seeded point mid-stream — between two files, or inside one, some of its
// pieces merged already — its remaining files re-route to the survivors,
// and the merged stream must still be byte-identical to the serial
// reference — with zero leaked goroutines after teardown.
func TestFleetShardKillDeterminism(t *testing.T) {
	env := newFleetEnv(t)
	cases := []struct {
		name  string
		spec  reader.Spec
		share bool
		seeds int64
	}{
		{"aligned", alignedSpec(), false, 5},
		{"misaligned", misalignedSpec(), false, 5},
		{"sharescans", alignedSpec(), true, 5},
		{"quarter batches", quarterSpec(), false, 8},
		{"quarter batches, sharescans", quarterSpec(), true, 8},
		{"carried quarter batches", carriedQuarterSpec(), false, 8},
		{"carried quarter batches, sharescans", carriedQuarterSpec(), true, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantEnc, _ := serialReference(t, env, tc.spec)
			for seed := int64(0); seed < tc.seeds; seed++ {
				before := runtime.NumGoroutine()
				rng := rand.New(rand.NewSource(seed))
				shards := startFleet(t, env, 3)
				fleet, err := dppshard.New(dppshard.Config{Addrs: addrsOf(shards)})
				if err != nil {
					t.Fatal(err)
				}
				sess, err := fleet.Open(context.Background(), dpp.Spec{
					Spec: tc.spec, Files: env.files, ShareScans: tc.share,
				})
				if err != nil {
					t.Fatal(err)
				}
				killAt := 1 + rng.Intn(len(wantEnc)-1)
				victim := rng.Intn(len(shards))
				var got [][]byte
				for {
					b, err := sess.Next(context.Background())
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					var buf bytes.Buffer
					if err := b.Encode(&buf); err != nil {
						t.Fatal(err)
					}
					got = append(got, buf.Bytes())
					if len(got) == killAt {
						shards[victim].kill()
					}
				}
				mustEqualStreams(t, got, wantEnc)
				sess.Close()
				for _, s := range shards {
					s.shutdown()
				}
				testutil.WaitForGoroutines(t, before)
			}
		})
	}
}

// cutAfterFrames relays target until it has passed k batch frames of one
// connection on to the client, then dies for good: that connection is cut
// and no other is accepted. A fleet without a resume policy sees a shard
// dead inside a file, k of the file's pieces delivered.
func cutAfterFrames(t *testing.T, target string, k int) (addr string, stop func()) {
	t.Helper()
	ln := relisten(t, "127.0.0.1:0")
	done := make(chan struct{})
	stop = func() { ln.Close(); <-done } // a proxy nobody dialed is parked in Accept
	t.Cleanup(stop)
	go func() {
		defer close(done)
		client, err := ln.Accept()
		if err != nil {
			return
		}
		defer client.Close()
		defer ln.Close()
		server, err := net.Dial("tcp", target)
		if err != nil {
			return
		}
		defer server.Close()
		go io.Copy(server, client) // handshake and credits; ends with either connection
		br := bufio.NewReader(server)
		for batches := 0; batches < k; {
			// A frame is its type byte, a uvarint payload length, the payload;
			// 0x11 is a batch frame (docs/ARCHITECTURE.md's wire table).
			typ, err := br.ReadByte()
			if err != nil {
				return
			}
			n, err := binary.ReadUvarint(br)
			if err != nil {
				return
			}
			frame := binary.AppendUvarint([]byte{typ}, n)
			frame = append(frame, make([]byte, n)...)
			if _, err := io.ReadFull(br, frame[len(frame)-int(n):]); err != nil {
				return
			}
			if _, err := client.Write(frame); err != nil {
				return
			}
			if typ == 0x11 {
				batches++
			}
		}
	}()
	return ln.Addr().String(), stop
}

// TestFleetShardDiesInsideAFile is the directed case of the kill contract:
// a shard dies with exactly k of a file's batch frames delivered — merged,
// and possibly emitted — and the file's closing record not. The file
// re-routes whole, the survivor's first k pieces of it are discarded, and
// the rest continue the unit already in the merge: no piece twice, none
// lost, the stream the serial reference's byte for byte.
func TestFleetShardDiesInsideAFile(t *testing.T) {
	env := newFleetEnv(t)
	spec := quarterSpec()
	wantEnc, _ := serialReference(t, env, spec)
	for k := 1; k <= 3; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			before := runtime.NumGoroutine()
			shards := startFleet(t, env, 3)
			addrs := addrsOf(shards)
			target := addrs[0]
			// Routing hashes the address, and the doomed one is kernel-chosen:
			// take the first that is routed two files at least, so that the
			// first of them is not the table's short last one, which has
			// fewer batch frames than the proxy waits for.
			var sess *dppshard.Session
			var doomed string
			for sess == nil {
				var stop func()
				doomed, stop = cutAfterFrames(t, target, k)
				addrs[0] = doomed
				fleet, err := dppshard.New(dppshard.Config{Addrs: addrs})
				if err != nil {
					t.Fatal(err)
				}
				if sess, err = fleet.Open(context.Background(), dpp.Spec{Spec: spec, Files: env.files}); err != nil {
					t.Fatal(err)
				}
				opened, _ := sess.ShardStats()
				if !slices.ContainsFunc(opened, func(st dppshard.ShardStat) bool { return st.Addr == doomed && st.Files >= 2 }) {
					sess.Close()
					sess = nil
					stop()
				}
			}
			mustEqualStreams(t, drainFleet(t, sess), wantEnc)
			stats, reroutes := sess.ShardStats()
			if reroutes != 1 {
				t.Fatalf("reroutes = %d, want the one death", reroutes)
			}
			served := 0
			for _, st := range stats {
				served += st.Served
				if st.Addr == doomed && (!st.Failed || st.Served != 0 || st.Files == 0) {
					t.Fatalf("the doomed shard's stream %+v: want it failed inside the first of its files", st)
				}
			}
			if served != len(env.files) {
				t.Fatalf("shard streams closed %d files, want each of the %d once", served, len(env.files))
			}
			sess.Close()
			for _, s := range shards {
				s.shutdown()
			}
			testutil.WaitForGoroutines(t, before)
		})
	}
}

// TestFleetOpenSemantics covers the admission edges: config validation,
// the explicit-files requirement, remote spec rejection failing the
// whole Open, dead shards at Open re-routing like a mid-stream death,
// and a fully unreachable fleet failing cleanly.
func TestFleetOpenSemantics(t *testing.T) {
	env := newFleetEnv(t)

	if _, err := dppshard.New(dppshard.Config{}); err == nil {
		t.Fatal("New accepted an empty shard set")
	}
	if _, err := dppshard.New(dppshard.Config{Addrs: []string{"a:1", "a:1"}}); err == nil {
		t.Fatal("New accepted duplicate shard addresses")
	}

	shards := startFleet(t, env, 2)
	fleet, err := dppshard.New(dppshard.Config{Addrs: addrsOf(shards)})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := fleet.Open(context.Background(), dpp.Spec{Spec: alignedSpec()}); err == nil {
		t.Fatal("Open accepted a spec without an explicit file list")
	}

	// An invalid spec fails Open locally — the mux reader validates it
	// before any shard is dialed.
	bad := alignedSpec()
	bad.BatchSize = 0
	if _, err := fleet.Open(context.Background(), dpp.Spec{Spec: bad, Files: env.files}); err == nil {
		t.Fatal("Open accepted a spec with batch size 0")
	}

	// A shard refusing admission (its gate's session cap) fails the whole
	// Open with ErrRemote — it is not treated as a dead shard to route
	// around.
	cappedSvc, err := dpp.New(dpp.Config{Backend: env.store, Catalog: env.catalog})
	if err != nil {
		t.Fatal(err)
	}
	defer cappedSvc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cappedSrv := dppnet.NewServer(cappedSvc)
	cappedSrv.Gate = front.NewGate(front.Config{Limits: map[string]front.Limits{front.DefaultTenant: {MaxSessions: 1}}})
	go cappedSrv.Serve(ln)
	defer cappedSrv.Close()
	capped, err := dppshard.New(dppshard.Config{Addrs: []string{ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	first, err := capped.Open(context.Background(), dpp.Spec{Spec: alignedSpec(), Files: env.files})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if _, err := capped.Open(context.Background(), dpp.Spec{Spec: alignedSpec(), Files: env.files}); !errors.Is(err, dppnet.ErrRemote) {
		t.Fatalf("capped shard: err = %v, want ErrRemote", err)
	}

	// A shard that is down at Open is treated as a mid-stream death at
	// file zero: its files re-route and the stream is still identical.
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close()
	mixed, err := dppshard.New(dppshard.Config{Addrs: []string{deadAddr, shards[0].addr, shards[1].addr}})
	if err != nil {
		t.Fatal(err)
	}
	wantEnc, _ := serialReference(t, env, alignedSpec())
	sess, err := mixed.Open(context.Background(), dpp.Spec{Spec: alignedSpec(), Files: env.files})
	if err != nil {
		t.Fatalf("fleet with one dead shard failed Open: %v", err)
	}
	mustEqualStreams(t, drainFleet(t, sess), wantEnc)
	sess.Close()

	allDead, err := dppshard.New(dppshard.Config{Addrs: []string{deadAddr}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := allDead.Open(context.Background(), dpp.Spec{Spec: alignedSpec(), Files: env.files}); err == nil {
		t.Fatal("Open succeeded with no reachable shards")
	}
}

// TestFleetMisalignedHoldsNoStorage: a fleet client holds no storage and
// needs none, whatever the alignment. Over 1, 2 and 4 shards and a batch
// size that carries rows into almost every file, a fleet built with no
// backend streams the serial reference byte for byte, and the shards and
// the mux together do exactly a serial scan's work, counter for counter:
// the mux's own reader — the fleet's total less every shard's — fetched and
// decoded nothing.
func TestFleetMisalignedHoldsNoStorage(t *testing.T) {
	env := newFleetEnv(t)
	wantEnc, wantStats := serialReference(t, env, misalignedSpec())
	for _, n := range []int{1, 2, 4} {
		shards := startFleet(t, env, n)
		fleet, err := dppshard.New(dppshard.Config{Addrs: addrsOf(shards)})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := fleet.Open(context.Background(), dpp.Spec{Spec: misalignedSpec(), Files: env.files})
		if err != nil {
			t.Fatalf("%d shards: %v", n, err)
		}
		mustEqualStreams(t, drainFleet(t, sess), wantEnc)
		st := sess.Stats()
		if counters(st.Reader) != counters(wantStats) {
			t.Fatalf("%d shards: aggregate counters %v, serial %v", n, counters(st.Reader), counters(wantStats))
		}
		mux := st.Reader
		stats, _ := sess.ShardStats()
		for _, sh := range stats {
			if !sh.StatsOK {
				t.Fatalf("%d shards: shard %s lost its stats frame on a healthy fleet", n, sh.Addr)
			}
			mux.ReadBytes -= sh.Stats.Reader.ReadBytes
			mux.RowsDecoded -= sh.Stats.Reader.RowsDecoded
		}
		if mux.ReadBytes != 0 || mux.RowsDecoded != 0 {
			t.Fatalf("%d shards: the mux read %d bytes and decoded %d rows", n, mux.ReadBytes, mux.RowsDecoded)
		}
		sess.Close()
		for _, s := range shards {
			s.shutdown()
		}
	}
}

// TestShardRestartRejoinsViaResume is the restart half of the failover
// contract (run under -race in CI): every shard server "restarts"
// mid-stream — killed and brought back on the same address with an
// empty resume table — and under a Resume policy the mux's wire
// sessions rejoin via token-less offset replay instead of re-routing
// files. The merged stream stays byte-identical to the serial
// reference, reroutes stay at zero, and every seeded schedule tears
// down leak-free. The misaligned rows replay a stream whose files are cut
// at nonzero carries: the replayed prefix is re-cut at the same ones.
//
// Window math makes the reconnect assertion deterministic: with
// Readers=Buffer=1 the merge pulls at most consumed+3 units and each
// shard server sends at most one unit past its last pull, so at kill
// point k every server together has sent at most k+6 of the table's
// files — with k <= files-7 batches consumed, and so no more files, some
// unit is still unsent and its shard's stream cannot have EOF'd, forcing
// at least one rejoin.
func TestShardRestartRejoinsViaResume(t *testing.T) {
	env := newFleetEnv(t)
	if len(env.files) < 8 {
		t.Fatalf("the table has only %d files; the kill window needs files-7 >= 1", len(env.files))
	}
	for _, row := range []struct {
		name  string
		spec  reader.Spec
		seeds int64
	}{{"", alignedSpec(), 8}, {",misaligned", misalignedSpec(), 4}} {
		wantEnc, _ := serialReference(t, env, row.spec)
		runRestartSeeds(t, env, row.name, row.spec, row.seeds, wantEnc)
	}
}

func runRestartSeeds(t *testing.T, env *fleetEnv, name string, spec reader.Spec, seeds int64, wantEnc [][]byte) {
	for seed := int64(0); seed < seeds; seed++ {
		share := seed%2 == 1
		t.Run(fmt.Sprintf("seed=%d,share=%v%s", seed, share, name), func(t *testing.T) {
			before := runtime.NumGoroutine()
			rng := rand.New(rand.NewSource(4000 + seed))
			shards := startFleet(t, env, 3)
			fleet, err := dppshard.New(dppshard.Config{
				Addrs:  addrsOf(shards),
				Resume: dppnet.ResumePolicy{MaxAttempts: 30, BaseDelay: 20 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			sess, err := fleet.Open(context.Background(), dpp.Spec{
				Spec: spec, Files: env.files, ShareScans: share,
				Readers: 1, Buffer: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			killAt := 1 + rng.Intn(len(env.files)-7)
			restarted := make([]*dppnet.Server, len(shards))
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
				if len(got) == killAt {
					// Same services, same addresses, fresh servers: the
					// resume tables died with the old processes, so every
					// token claim fails and the rejoins are pure offset
					// replays.
					for i, s := range shards {
						s.kill()
						ln := relisten(t, s.addr)
						restarted[i] = dppnet.NewServer(s.svc)
						go restarted[i].Serve(ln)
					}
				}
			}
			mustEqualStreams(t, got, wantEnc)
			stats, reroutes := sess.ShardStats()
			if reroutes != 0 {
				t.Fatalf("fleet re-routed %d times; restarted shards should have been rejoined", reroutes)
			}
			var reconnects int64
			for _, st := range stats {
				reconnects += st.Reconnects
			}
			if reconnects < 1 {
				t.Fatalf("fleet-wide restart at batch %d/%d produced no reconnects", killAt, len(wantEnc))
			}
			sess.Close()
			for _, srv := range restarted {
				if err := srv.Close(); err != nil {
					t.Errorf("restarted server Close: %v", err)
				}
			}
			for _, s := range shards {
				s.shutdown()
			}
			testutil.WaitForGoroutines(t, before)
		})
	}
}

// relisten rebinds addr, retrying briefly while the killed server's
// listener finishes closing.
func relisten(t testing.TB, addr string) net.Listener {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
