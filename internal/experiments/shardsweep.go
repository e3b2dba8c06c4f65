package experiments

import (
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/datagen"
	"repro/internal/dpp"
	"repro/internal/dpp/dppnet"
	"repro/internal/dpp/dppshard"
	"repro/internal/dwrf"
	"repro/internal/etl"
	"repro/internal/lakefs"
	"repro/internal/reader"
)

func init() {
	register(Runner{ID: "shard-sweep", Brief: "one trainer over a sharded preprocessing fleet: throughput and decode partitioning vs shard count", Run: runShardSweep})
}

// ShardNs returns the sweep's shard counts, 1 → 8 doublings; Small (the
// -short / CI budget) stops at 4.
func ShardNs(scale Scale) []int {
	ns := []int{1, 2, 4, 8}
	if scale == Small {
		return ns[:3]
	}
	return ns
}

// shardSweepEnv is the landed partition the sweep scans, cut into many
// small batch-aligned files so rendezvous routing has material to spread
// across 8 shards.
type shardSweepEnv struct {
	store   *lakefs.Store
	catalog *lakefs.Catalog
	spec    reader.Spec
	files   []string
}

func newShardSweepEnv() (*shardSweepEnv, error) {
	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 3, UserElem: 3, Item: 1, Dense: 2, SeqLen: 32, Seed: 12,
	})
	gen := datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: 160, MeanSamplesPerSession: 12, Seed: 13,
	})
	samples := etl.ClusterBySession(gen.GeneratePartition())
	store := lakefs.NewStore()
	catalog := lakefs.NewCatalog()
	if _, err := dwrf.WritePartition(store, catalog, "shardsweep", 0, schema, samples,
		dwrf.TableOptions{RowsPerFile: 128, Writer: dwrf.WriterOptions{StripeRows: 64}}); err != nil {
		return nil, err
	}
	files, err := catalog.AllFiles("shardsweep")
	if err != nil {
		return nil, err
	}
	return &shardSweepEnv{
		store:   store,
		catalog: catalog,
		files:   files,
		spec: reader.Spec{
			Table: "shardsweep", BatchSize: 128,
			SparseFeatures:      []string{"item_0"},
			DedupSparseFeatures: [][]string{{"user_seq_0", "user_seq_1", "user_seq_2"}, {"user_elem_0", "user_elem_1", "user_elem_2"}},
		},
	}, nil
}

// ShardPoint is one sweep measurement: one ShareScans fleet session
// drained over k fresh shards.
type ShardPoint struct {
	// Shards is k, the fleet size.
	Shards int
	// Batches is the merged stream's batch count (identical at every k).
	Batches int64
	// Elapsed is the wall time to drain the merged stream.
	Elapsed time.Duration
	// BatchesPerSec is Batches / Elapsed.
	BatchesPerSec float64
	// FilesDecoded sums per-shard cache misses — equal to the file count
	// when every file is decoded on exactly one shard.
	FilesDecoded int64
	// MaxShardFiles is the largest per-shard routed subset, the routing
	// balance figure (len(files)/k when perfectly even).
	MaxShardFiles int
	// Reroutes counts mid-stream shard deaths (zero on a healthy sweep).
	Reroutes int64
}

// runPoint starts k shard services on loopback listeners, opens one
// fleet session over them, and drains it cold — every point measures
// "k shards, each file decoded once, on its owning shard".
func (env *shardSweepEnv) runPoint(k int) (ShardPoint, error) {
	type proc struct {
		svc *dpp.Service
		srv *dppnet.Server
	}
	procs := make([]proc, 0, k)
	addrs := make([]string, 0, k)
	defer func() {
		for _, p := range procs {
			p.srv.Close()
			p.svc.Close()
		}
	}()
	for i := 0; i < k; i++ {
		svc, err := dpp.New(dpp.Config{Backend: env.store, Catalog: env.catalog})
		if err != nil {
			return ShardPoint{}, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			svc.Close()
			return ShardPoint{}, err
		}
		srv := dppnet.NewServer(svc)
		go srv.Serve(ln)
		procs = append(procs, proc{svc: svc, srv: srv})
		addrs = append(addrs, ln.Addr().String())
	}

	fleet, err := dppshard.New(dppshard.Config{Addrs: addrs})
	if err != nil {
		return ShardPoint{}, err
	}
	ctx := context.Background()
	sess, err := fleet.Open(ctx, dpp.Spec{Spec: env.spec, Files: env.files, Buffer: 2, ShareScans: true})
	if err != nil {
		return ShardPoint{}, err
	}
	defer sess.Close()

	pt := ShardPoint{Shards: k}
	start := time.Now()
	for {
		_, err := sess.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return ShardPoint{}, err
		}
		pt.Batches++
	}
	pt.Elapsed = time.Since(start)
	if pt.Elapsed > 0 {
		pt.BatchesPerSec = float64(pt.Batches) / pt.Elapsed.Seconds()
	}
	stats, reroutes := sess.ShardStats()
	pt.Reroutes = reroutes
	for _, st := range stats {
		if st.StatsOK {
			pt.FilesDecoded += st.Stats.Cache.Misses
		}
		if st.Files > pt.MaxShardFiles {
			pt.MaxShardFiles = st.Files
		}
	}
	return pt, nil
}

// ShardSweep is the sharded-fleet scaling experiment: one trainer-shaped
// consumer over k preprocessing shards, k = 1 → 8. The merged stream is
// the same at every k (the determinism contract pins it byte-identical);
// what k buys is capacity — per-shard decode work and cache footprint
// shrink as 1/k because rendezvous routing decodes each file on exactly
// one shard, which the per-shard miss counts make visible.
func ShardSweep(ns []int) ([]ShardPoint, error) {
	env, err := newShardSweepEnv()
	if err != nil {
		return nil, err
	}
	points := make([]ShardPoint, 0, len(ns))
	for _, k := range ns {
		pt, err := env.runPoint(k)
		if err != nil {
			return nil, err
		}
		points = append(points, pt)
	}
	return points, nil
}

// runShardSweep renders the sweep as a paper-style result table.
func runShardSweep(scale Scale) (*Result, error) {
	points, err := ShardSweep(ShardNs(scale))
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:    "shard-sweep",
		Title: "sharded preprocessing fleet: one consumer over k rendezvous-routed shards",
	}
	for _, pt := range points {
		res.Rows = append(res.Rows, Row{
			Label: fmt.Sprintf("k=%d", pt.Shards),
			Values: []Cell{
				{Name: "batches_s", Value: pt.BatchesPerSec, Unit: ""},
				{Name: "files_decoded", Value: float64(pt.FilesDecoded), Unit: ""},
				{Name: "max_shard_files", Value: float64(pt.MaxShardFiles), Unit: ""},
				{Name: "reroutes", Value: float64(pt.Reroutes), Unit: ""},
			},
		})
	}
	res.Notes = append(res.Notes,
		"files_decoded is flat in k (each file decoded on exactly its owning shard); max_shard_files falls ~1/k",
		"the merged stream is byte-identical at every k — shards add cache capacity, not new bytes")
	return res, nil
}
