package cachecore_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/cachecore"
)

// model is the reference implementation of the replacement policy the
// cache is checked against: slices instead of lists and maps, no
// concurrency, the two constants restated so that changing one in the
// package fails here. escape == 0 is refusal with no escape, kept to
// document why the escape exists.
type model struct {
	max             int64
	escape          int
	lru             []cachecore.Entry[string] // most recently used first
	ghosts          []string                  // oldest first
	seen            map[string]int64          // resident key -> Hits at the policy's last look, -1 before it
	peak, refusals  int
	st              cachecore.Stats
	inserted, freed int64 // entries ever resident; entries invalidated while resident
}

func newModel(max int64) *model { return &model{max: max, escape: 8, seen: map[string]int64{}} }

func (m *model) find(key string) int {
	for i, e := range m.lru {
		if e.Key == key {
			return i
		}
	}
	return -1
}

func (m *model) ghost(key string) int {
	for i, g := range m.ghosts {
		if g == key {
			return i
		}
	}
	return -1
}

func (m *model) forget(key string) {
	if i := m.ghost(key); i >= 0 {
		m.ghosts = append(m.ghosts[:i:i], m.ghosts[i+1:]...)
	}
}

// Compute outcomes a script can ask for.
const (
	computeOK   = iota
	computeFail // returns an error
	computeDoom // its key is Removed while it runs
)

// get is Cache.Get for a compute that costs cost and ends in outcome.
func (m *model) get(key string, cost int64, outcome int) (hit bool) {
	if i := m.find(key); i >= 0 {
		e := m.lru[i]
		e.Hits++
		m.lru = append(append([]cachecore.Entry[string]{e}, m.lru[:i]...), m.lru[i+1:]...)
		m.st.Hits++
		return true
	}
	m.st.Misses++
	regret := m.ghost(key) >= 0
	if regret {
		m.st.GhostHits++
	}
	if outcome == computeDoom {
		m.forget(key)
		m.st.Invalidations++
	}
	if outcome != computeOK || cost > m.max {
		return false // never resident, so it leaves no ghost of its own
	}
	if regret && m.st.Bytes+cost > m.max {
		if m.refusals++; m.escape == 0 || m.refusals%m.escape != 0 {
			return false
		}
		victim := m.lru[len(m.lru)-1]
		stale := victim.Hits == m.seen[victim.Key]
		if m.seen[victim.Key] = victim.Hits; !stale {
			return false
		}
	}
	m.forget(key)
	m.lru = append([]cachecore.Entry[string]{{Key: key, Bytes: cost}}, m.lru...)
	m.seen[key] = -1
	m.st.Bytes += cost
	m.inserted++
	for m.st.Bytes > m.max {
		v := m.lru[len(m.lru)-1]
		m.lru = m.lru[:len(m.lru)-1]
		m.st.Bytes -= v.Bytes
		m.st.Evictions++
		m.ghosts = append(m.ghosts, v.Key)
		for len(m.ghosts) > 8*m.peak {
			m.ghosts = m.ghosts[1:]
		}
	}
	m.peak = max(m.peak, len(m.lru))
	return false
}

// remove is Cache.Remove for a key with no compute in flight.
func (m *model) remove(key string) bool {
	m.forget(key)
	i := m.find(key)
	if i < 0 {
		return false
	}
	m.st.Bytes -= m.lru[i].Bytes
	m.lru = append(m.lru[:i:i], m.lru[i+1:]...)
	m.st.Invalidations++
	m.freed++
	return true
}

// pair drives a cache and the model with one script and compares them
// after every call.
type pair struct {
	t    testing.TB
	c    *cachecore.Cache[string, int64]
	m    *model
	gets int64
}

func newPair(t testing.TB, max int64) *pair {
	return &pair{
		t: t,
		c: cachecore.New[string](cachecore.Config{MaxBytes: max}, func(v int64) int64 { return v }),
		m: newModel(max),
	}
}

var errCompute = errors.New("compute failed")

func (p *pair) get(key string, cost int64, outcome int) bool {
	p.t.Helper()
	_, hit, err := p.c.Get(context.Background(), key, func(context.Context) (int64, error) {
		switch outcome {
		case computeFail:
			return 0, errCompute
		case computeDoom:
			if !p.c.Remove(key) {
				p.t.Fatalf("Remove(%q) mid-compute found no in-flight entry", key)
			}
		}
		return cost, nil
	})
	p.gets++
	want := p.m.get(key, cost, outcome)
	if hit != want || (err != nil) != (!want && outcome == computeFail) {
		p.t.Fatalf("Get(%q) hit=%v err=%v, model hit=%v", key, hit, err, want)
	}
	p.check()
	return hit
}

func (p *pair) remove(key string) {
	p.t.Helper()
	if got, want := p.c.Remove(key), p.m.remove(key); got != want {
		p.t.Fatalf("Remove(%q) = %v, model %v", key, got, want)
	}
	p.check()
}

func (p *pair) removeIf(pred func(string) bool) {
	p.t.Helper()
	keys := append([]string{}, p.m.ghosts...) // remove edits both slices
	for _, e := range p.m.lru {
		keys = append(keys, e.Key)
	}
	want := 0
	for _, key := range keys {
		if pred(key) && p.m.remove(key) {
			want++
		}
	}
	if got := p.c.RemoveIf(pred); got != want {
		p.t.Fatalf("RemoveIf dropped %d entries, model %d", got, want)
	}
	p.check()
}

// check holds the cache to the model — residency, order, per-entry hits
// and every counter — and both to the budget and the conservation laws.
func (p *pair) check() {
	p.t.Helper()
	st := p.c.Stats()
	want := p.m.st
	want.Entries = len(p.m.lru)
	if st != want {
		p.t.Fatalf("stats %+v, model %+v", st, want)
	}
	if got := p.c.Entries(); !reflect.DeepEqual(got, append([]cachecore.Entry[string]{}, p.m.lru...)) {
		p.t.Fatalf("order %+v, model %+v", got, p.m.lru)
	}
	if st.Bytes > p.m.max {
		p.t.Fatalf("%d bytes resident over a budget of %d", st.Bytes, p.m.max)
	}
	if st.Hits+st.Misses != p.gets {
		p.t.Fatalf("%d hits + %d misses over %d gets", st.Hits, st.Misses, p.gets)
	}
	if p.m.inserted != int64(st.Entries)+st.Evictions+p.m.freed {
		p.t.Fatalf("%d inserted, but %d resident + %d evicted + %d invalidated while resident",
			p.m.inserted, st.Entries, st.Evictions, p.m.freed)
	}
}

// cycle runs passes over keys prefix0..prefix(n-1) at unit cost and
// returns the hits of each pass.
func (p *pair) cycle(prefix string, n, passes int) []int {
	p.t.Helper()
	hits := make([]int, passes)
	for i := range hits {
		for k := 0; k < n; k++ {
			if p.get(fmt.Sprint(prefix, k), 1, computeOK) {
				hits[i]++
			}
		}
	}
	return hits
}

// TestCyclicScanKeepsResidentSubset: a cycle of N unit entries over room
// for C keeps C of them resident from the second pass on. While it misses
// no more than 8 per pass (N-C <= 8) no look at the next victim finds it
// unhit, so every pass hits the same C keys and misses the same N-C: what
// the first batch of an epoch costs does not depend on which epoch it is.
// A longer loop pays one hit per escape, at most one escape per 16
// refusals.
func TestCyclicScanKeepsResidentSubset(t *testing.T) {
	const passes = 12
	for _, c := range []int{4, 5, 10} {
		for _, n := range []int{c + 1, 2*c - 1, 2 * c, 4 * c} {
			t.Run(fmt.Sprintf("N=%d,C=%d", n, c), func(t *testing.T) {
				p := newPair(t, int64(c))
				if hits := p.cycle("k", n, 2); hits[0] != 0 {
					t.Fatalf("%d hits on the first pass over distinct keys", hits[0])
				}
				kept := residentKeys(p.c)
				hits := p.cycle("k", n, passes-2)
				total := 0
				for i, h := range hits {
					total += h
					if floor := c - (n-c+15)/16; h < floor {
						t.Errorf("pass %d: %d hits, want >= %d (passes 3 on: %v)", i+3, h, floor, hits)
					}
					if n-c <= 8 && h != c {
						t.Errorf("pass %d: %d hits, want all %d resident keys (passes 3 on: %v)", i+3, h, c, hits)
					}
				}
				if floor := len(hits)*c - (len(hits)*(n-c)+15)/16; total < floor {
					t.Errorf("%d hits over passes 3..%d, want >= %d (%v)", total, passes, floor, hits)
				}
				if got := residentKeys(p.c); n-c <= 8 && !reflect.DeepEqual(got, kept) {
					t.Errorf("resident after pass 2: %v, after pass %d: %v; a loop that fits the escape's stride keeps one set", kept, passes, got)
				}
				if st := p.c.Stats(); st.GhostHits != st.Misses-int64(n) {
					t.Errorf("stats %+v: every miss after the first pass is a regret", st)
				}

				// The policy is a function of the sequence: a second run agrees
				// on every counter.
				again := newPair(t, int64(c))
				again.cycle("k", n, passes)
				if a, b := p.c.Stats(), again.c.Stats(); a != b {
					t.Errorf("two runs of one sequence: %+v then %+v", a, b)
				}
			})
		}
	}
}

// residentKeys is the resident set, order aside.
func residentKeys(c *cachecore.Cache[string, int64]) []string {
	var keys []string
	for _, e := range c.Entries() {
		keys = append(keys, e.Key)
	}
	sort.Strings(keys)
	return keys
}

// TestLoopLongerThanGhostsIsLRU: a cycle far too long for the ghost list
// is not recognised and is served as the LRU serves it — no hits, and no
// ghost hits either. That is the stated limit of the policy, not a cliff
// below what the cache did without it.
func TestLoopLongerThanGhostsIsLRU(t *testing.T) {
	const c = 5
	p := newPair(t, c)
	if hits := p.cycle("k", 9*c, 3); hits[1] == 0 || hits[2] == 0 {
		t.Fatalf("a loop of 9x the cache should still be recognised: hits per pass %v", hits)
	}
	p = newPair(t, c)
	hits := p.cycle("k", 20*c, 4)
	if st := p.c.Stats(); st.Hits != 0 || st.GhostHits != 0 {
		t.Fatalf("a loop of 20x the cache: hits per pass %v, stats %+v; want plain LRU", hits, st)
	}
}

// TestWorkingSetSwitch: after a cycle that does not fit, a new cycle
// that does takes the cache over as it would an LRU's — its keys are no
// ghosts, so they are admitted and push the old set out.
func TestWorkingSetSwitch(t *testing.T) {
	const c = 5
	p := newPair(t, c)
	p.cycle("a", 9, 3)
	hits := p.cycle("b", c, 4)
	if hits[1] != c || hits[3] != c {
		t.Fatalf("hits per pass over the new set %v, want all %d from its second pass", hits, c)
	}
	for _, e := range p.c.Entries() {
		if e.Key[0] == 'a' {
			t.Fatalf("%q still resident four passes after the switch: %+v", e.Key, p.c.Entries())
		}
	}
}

// TestWorkingSetShrinkEscapes is the case the escape exists for. A 9-key
// cycle over room for 5 keeps five keys; the loop then shrinks to four
// keys that are all ghosts. Refusal alone never recovers: nothing is
// admitted, so nothing stale leaves. With the escape, four stale keys go
// one per escape; a stale key is the next victim at two looks running,
// 8 refusals apart, so an escape every 16 refusals, and a pass makes 4,
// then 3, 2, 1 of them: 16/4 + 16/3 + 16/2 + 16/1 < 34 passes.
func TestWorkingSetShrinkEscapes(t *testing.T) {
	const c, bound = 5, 34
	p := newPair(t, c)
	p.cycle("k", 9, 3)
	for k := 0; k < 4; k++ {
		if key := fmt.Sprint("k", k); p.c.Contains(key) {
			t.Fatalf("%s is resident; the shrunk loop must start on evicted keys", key)
		}
	}
	hits := p.cycle("k", 4, bound+4)
	for i, h := range hits[bound:] {
		if h != 4 {
			t.Fatalf("pass %d after the shrink: %d/4 hits; hits per pass %v", bound+i+1, h, hits)
		}
	}

	stuck := newModel(c)
	stuck.escape = 0
	for pass := 0; pass < 3+4*bound; pass++ {
		n := 9
		if pass >= 3 {
			n = 4
		}
		for k := 0; k < n; k++ {
			if stuck.get(fmt.Sprint("k", k), 1, computeOK) && pass >= 3 {
				t.Fatalf("refusal with no escape hit k%d on pass %d: the escape is no longer what recovers this", k, pass+1)
			}
		}
	}
}

// TestEscapeSparesAHitVictim: the escape retires the next victim only if
// no hit reached it between two looks, 8 refusals apart. Entries that
// are still used outlast any number of refusals; once they go unused the
// second look lets the refused key in.
func TestEscapeSparesAHitVictim(t *testing.T) {
	p := newPair(t, 2)
	for _, k := range []string{"g", "x", "y"} {
		p.get(k, 1, computeOK) // y evicts g
	}
	refuse8 := func() {
		for i := 0; i < 8; i++ {
			p.get("g", 1, computeOK)
		}
	}
	for round := 0; round < 5; round++ {
		refuse8()
		if !p.get("x", 1, computeOK) || !p.get("y", 1, computeOK) {
			t.Fatalf("round %d: an entry hit every round was retired: %+v", round, p.c.Entries())
		}
	}
	refuse8() // x was hit since the last look
	if p.c.Contains("g") {
		t.Fatal("g admitted over a victim hit since the last look")
	}
	refuse8() // and not since this one
	if !p.c.Contains("g") || p.c.Contains("x") {
		t.Fatalf("the second look at an unhit victim did not retire it: %+v", p.c.Entries())
	}
}

// TestRemoveForgetsGhost: invalidation is the source changing, so an
// eviction before it is no evidence about the key's reuse — its next
// miss is admitted like any new key's.
func TestRemoveForgetsGhost(t *testing.T) {
	for _, tc := range []struct {
		name     string
		forget   func(*pair)
		admitted bool
	}{
		{"remembered", func(*pair) {}, false},
		{"Remove", func(p *pair) { p.remove("a") }, true},
		{"RemoveIf", func(p *pair) { p.removeIf(func(k string) bool { return k == "a" }) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPair(t, 3)
			for _, k := range []string{"a", "b", "c", "d"} {
				p.get(k, 1, computeOK)
			}
			tc.forget(p) // a was evicted by d and is a ghost
			p.get("a", 1, computeOK)
			var wantGhostHits int64 = 1
			if tc.admitted {
				wantGhostHits = 0
			}
			if st := p.c.Stats(); p.c.Contains("a") != tc.admitted || st.GhostHits != wantGhostHits {
				t.Fatalf("a resident = %v with %d ghost hits, want %v with %d",
					p.c.Contains("a"), st.GhostHits, tc.admitted, wantGhostHits)
			}
		})
	}
}

// TestNeverResidentNeverGhost: failed, doomed and oversize computes were
// never resident, so they leave nothing for a later miss to regret.
func TestNeverResidentNeverGhost(t *testing.T) {
	p := newPair(t, 2)
	p.get("fail", 1, computeFail)
	p.get("doom", 1, computeDoom)
	p.get("huge", 3, computeOK)
	for _, k := range []string{"x", "y", "z", "fail", "doom", "huge"} {
		p.get(k, 1, computeOK)
	}
	if st := p.c.Stats(); st.GhostHits != 0 {
		t.Fatalf("stats %+v: a compute that was never resident left a ghost", st)
	}
}

// TestVariableCostRefusalAndEscape: a regretted value is judged at the
// size it comes back with — refused while it needs an eviction, admitted
// once free room holds it — and the escape, the one admission that does
// evict, waits for a second look at an unhit victim and then evicts as
// many entries as its value needs (pair.check holds the budget after
// every call).
func TestVariableCostRefusalAndEscape(t *testing.T) {
	p := newPair(t, 6)
	for _, k := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		p.get(k, 1, computeOK) // g evicts a, h evicts b
	}
	full := p.c.Entries()
	p.get("a", 3, computeOK) // refusal 1: three times the size it left with
	if got := p.c.Entries(); !reflect.DeepEqual(got, full) {
		t.Fatalf("a refused value changed the cache: %+v, was %+v", got, full)
	}
	p.remove("c")
	p.remove("d")
	p.get("b", 2, computeOK) // still a ghost, and now it fits
	if got := p.c.Entries(); got[0].Key != "b" || len(got) != 5 || p.c.Stats().Evictions != 2 {
		t.Fatalf("a regretted value that fits free room was not admitted: %+v", got)
	}
	for i := 2; i < 16; i++ {
		p.get("a", 3, computeOK) // refusals 2..15; the 8th is the first look at e
	}
	if p.c.Contains("a") {
		t.Fatal("a admitted before the second look at the victim")
	}
	p.get("a", 3, computeOK) // e unhit since the first look: e, f, g make room
	want := []cachecore.Entry[string]{{Key: "a", Bytes: 3}, {Key: "b", Bytes: 2}, {Key: "h", Bytes: 1}}
	if got := p.c.Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the escape %+v, want %+v", got, want)
	}
}

// TestConcurrentOvercommit drives the ghost list and the refusal counter
// from several goroutines at once (the interleaving is not a function of
// anything, so only what holds for every interleaving is asserted): run
// under -race, the budget holds and every Get is a hit or a miss.
func TestConcurrentOvercommit(t *testing.T) {
	const workers, passes, keys, room = 4, 50, 24, 5
	c := cachecore.New[int](cachecore.Config{MaxBytes: room, CountWaiterHits: true}, func(v int64) int64 { return v })
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < passes*keys; i++ {
				k := (i + w*keys/workers) % keys
				if _, _, err := c.Get(context.Background(), k, constCompute); err != nil {
					t.Error(err)
				}
				switch {
				case i%17 == 0:
					c.Remove(k)
				case i%29 == 0:
					c.RemoveIf(func(key int) bool { return key%5 == w })
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != workers*passes*keys || st.Bytes > room || int64(st.Entries) != st.Bytes ||
		st.GhostHits > st.Misses || len(c.Entries()) != st.Entries {
		t.Fatalf("stats %+v after %d gets over room for %d", st, workers*passes*keys, room)
	}
}

// FuzzCachePolicy reads arbitrary bytes as a Get/Remove script — the
// first byte is the budget, then two bytes per call: an opcode with a
// cost, and a key — and holds the cache to the reference model after
// every call (pair.check).
func FuzzCachePolicy(f *testing.F) {
	loop := func(budget byte, n, passes int) []byte {
		script := []byte{budget}
		for i := 0; i < n*passes; i++ {
			script = append(script, 0, byte(i%n))
		}
		return script
	}
	f.Add(loop(4, 9, 6))
	f.Add(loop(4, 6, 20))
	f.Add(append(loop(4, 9, 3), loop(4, 4, 20)[1:]...))
	f.Add(loop(0, 12, 3))
	f.Add([]byte{2, 0, 1, 0, 2, 0, 3, 6, 1, 0, 1, 7, 2, 0, 2, 5, 3, 4, 3, 0, 3, 24, 1, 8, 2, 16, 3})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		p := newPair(t, 1+int64(script[0]%8))
		for i := 1; i+1 < len(script); i += 2 {
			op, cost, key := script[i]%8, 1+int64(script[i]>>3%4), fmt.Sprint(script[i+1]%32)
			switch op {
			case 4:
				p.get(key, cost, computeFail)
			case 5:
				p.get(key, cost, computeDoom)
			case 6:
				p.remove(key)
			case 7:
				class := key[len(key)-1]
				p.removeIf(func(k string) bool { return k[len(k)-1] == class })
			default:
				p.get(key, cost, computeOK)
			}
		}
	})
}

func constCompute(context.Context) (int64, error) { return 1, nil }

var sinkHit bool

// BenchmarkCacheGetHit is the path every warm batch takes: a resident
// key, no compute. It must stay allocation-free.
func BenchmarkCacheGetHit(b *testing.B) {
	c := cachecore.New[int](cachecore.Config{MaxBytes: 8}, func(v int64) int64 { return v })
	ctx := context.Background()
	for k := 0; k < 8; k++ {
		c.Get(ctx, k, constCompute)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sinkHit, _ = c.Get(ctx, i&7, constCompute)
	}
}

// BenchmarkCacheCyclicOvercommit is one op = one pass of a 9-key cycle
// over room for five, the fleet_overcommit shard's shape. computes/pass
// is what the policy is for: 9 under LRU, 4 here.
func BenchmarkCacheCyclicOvercommit(b *testing.B) {
	c := cachecore.New[int](cachecore.Config{MaxBytes: 5}, func(v int64) int64 { return v })
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 9; k++ {
			c.Get(ctx, k, constCompute)
		}
	}
	b.ReportMetric(float64(c.Stats().Misses)/float64(b.N), "computes/pass")
}
