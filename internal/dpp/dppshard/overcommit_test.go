package dppshard_test

import (
	"context"
	"testing"

	"repro/internal/dpp"
	"repro/internal/dpp/dppshard"
	"repro/internal/reader"
)

// passCounts is one shard's scan-cache traffic over one pass.
type passCounts struct{ Hits, Misses, Evictions, GhostHits int64 }

// TestFleetOvercommitKeepsResidentSubset is the ladder's fleet_overcommit
// in miniature: two shards whose scan caches together hold two thirds of
// the decoded table, one ShareScans fleet session per pass. A cyclic scan
// over a cache it does not fit is LRU's worst case — every entry evicted
// before its reuse, no hit on any pass; the cache has to notice that and
// keep the part of each shard's files it can hold (from the third pass:
// the second is where it notices). Every pass is still
// byte-identical to the serial reference, and the counts are a function
// of the access sequence: a second fleet on the same addresses (same
// routing) repeats them exactly.
func TestFleetOvercommitKeepsResidentSubset(t *testing.T) {
	const passes = 5
	env := newDrainEnv(t)
	spec := alignedSpec()
	wantEnc, wantStats := serialReference(t, env, spec)

	r, err := reader.NewReader(env.store, spec)
	if err != nil {
		t.Fatal(err)
	}
	var decoded int64
	for _, f := range env.files {
		scan, err := r.ScanFile(context.Background(), f, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		decoded += scan.MemBytes()
	}
	budget := decoded / 3

	run := func(listen []string) (addrs []string, counts [passes][2]passCounts) {
		shards := startFleetOn(t, env, listen, budget)
		defer shutdownAll(shards)()
		addrs = addrsOf(shards)
		fleet, err := dppshard.New(dppshard.Config{Addrs: addrs})
		if err != nil {
			t.Fatal(err)
		}
		var routed, fit [2]int64
		for pass := range counts {
			var before [2]dpp.ScanCacheStats
			for i, s := range shards {
				before[i] = s.svc.Stats().Cache
			}
			sess, err := fleet.Open(context.Background(), dpp.Spec{Spec: spec, Files: env.files, ShareScans: true})
			if err != nil {
				t.Fatal(err)
			}
			mustEqualStreams(t, drainFleet(t, sess), wantEnc)
			rowsDecoded := sess.Stats().Reader.RowsDecoded
			sess.Close()

			var hits int64
			for i, s := range shards {
				st := s.svc.Stats().Cache
				if st.Bytes > budget {
					t.Fatalf("pass %d shard %d: %d bytes resident over a budget of %d", pass+1, i, st.Bytes, budget)
				}
				c := passCounts{st.Hits - before[i].Hits, st.Misses - before[i].Misses,
					st.Evictions - before[i].Evictions, st.GhostHits - before[i].GhostHits}
				counts[pass][i] = c
				hits += c.Hits
				if pass == 0 {
					// What the cold pass leaves resident is what fits.
					routed[i], fit[i] = c.Misses, int64(st.Entries)
					continue
				}
				// Steady state keeps what the cold pass left resident, give or
				// take one entry (the scans are not all one size); an escape
				// costs a hit and comes at most once per 16 of the pass's
				// misses, and never to a shard that misses 8 or fewer: that one
				// serves every pass from the same resident files.
				floor := fit[i] - 1 - (routed[i]-fit[i]+15)/16
				if pass >= 2 && c.Hits < floor {
					t.Errorf("pass %d shard %d: %d hits of %d files with room for %d, want >= %d",
						pass+1, i, c.Hits, routed[i], fit[i], floor)
				}
				if prev := counts[pass-1][i]; pass >= 3 && prev.Misses <= 8 && c != prev {
					t.Errorf("pass %d shard %d: %+v after %+v; a shard missing 8 files or fewer per pass repeats itself",
						pass+1, i, c, prev)
				}
			}
			// Every hit is a 64-row file not decoded (one file of the table
			// may be short).
			if total := wantStats.RowsDecoded; rowsDecoded > total-64*(hits-1) || rowsDecoded < total-64*hits {
				t.Errorf("pass %d: %d rows decoded of %d with %d file hits", pass+1, rowsDecoded, total, hits)
			}
		}
		if routed[0] <= fit[0] && routed[1] <= fit[1] {
			t.Fatalf("routed %v files over room for %v: neither shard is overcommitted", routed, fit)
		}
		if fit[0] < 4 || fit[1] < 4 {
			t.Fatalf("room for %v files per shard: too small for a resident subset to show", fit)
		}
		return addrs, counts
	}

	addrs, first := run([]string{"127.0.0.1:0", "127.0.0.1:0"})
	_, second := run(addrs)
	if first != second {
		t.Fatalf("two fleets on the same addresses disagree on per-pass cache counts:\n%+v\n%+v", first, second)
	}
	t.Logf("per pass, per shard {hits misses evictions ghost-hits}: %+v", first)
}
