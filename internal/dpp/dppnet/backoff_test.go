package dppnet

import (
	"math/rand"
	"testing"
	"time"
)

// TestResumePolicyNormalizedDefaults pins the zero-value policy's one
// default: a 50ms base delay. The cap and the jitter fraction are
// constants, not fields.
func TestResumePolicyNormalizedDefaults(t *testing.T) {
	if p := (ResumePolicy{}).normalized(); p.BaseDelay != 50*time.Millisecond {
		t.Fatalf("default BaseDelay = %v, want 50ms", p.BaseDelay)
	}
	if p := (ResumePolicy{BaseDelay: time.Second}).normalized(); p.BaseDelay != time.Second {
		t.Fatalf("a set BaseDelay normalized to %v", p.BaseDelay)
	}
}

// TestBackoffExactExponentialWithoutJitter pins the unjittered schedule —
// a nil source — doubling from BaseDelay, capped at resumeDelayCap,
// attempt 1 = BaseDelay.
func TestBackoffExactExponentialWithoutJitter(t *testing.T) {
	p := ResumePolicy{}.normalized()
	want := []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, 1600 * time.Millisecond,
		2 * time.Second, 2 * time.Second, 2 * time.Second,
	}
	for i, w := range want {
		if got := p.backoff(i+1, nil); got != w {
			t.Fatalf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	// A base above the cap is capped from the first delay on.
	if got := (ResumePolicy{BaseDelay: time.Minute}).backoff(1, nil); got != resumeDelayCap {
		t.Fatalf("backoff(1) from a one-minute base = %v, want the %v cap", got, resumeDelayCap)
	}
}

// TestBackoffJitterDeterministicAndBounded: the delay sequence is a
// function of the source alone (two sources of one seed agree), and every
// jittered delay stays inside [(1-J)*exp, exp] of the capped exponential
// it was derived from.
func TestBackoffJitterDeterministicAndBounded(t *testing.T) {
	p := ResumePolicy{}.normalized()
	r1, r2 := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
	for n := 1; n <= 10; n++ {
		d1, d2 := p.backoff(n, r1), p.backoff(n, r2)
		if d1 != d2 {
			t.Fatalf("attempt %d: same seed gave %v vs %v", n, d1, d2)
		}
		exp := p.backoff(n, nil)
		lo := time.Duration((1 - resumeJitter) * float64(exp))
		if d1 < lo || d1 > exp {
			t.Fatalf("attempt %d: jittered delay %v outside [%v, %v]", n, d1, lo, exp)
		}
	}
}

// TestBackoffJitterSpreadsSessions is the anti-herd property the jitter
// exists for: sessions sharing one client mix their own ordinal into
// their source, so a server restart that drops all of them does not see
// them redial on one identical schedule. With 8 ordinals the third
// backoff must take several distinct values — before the ordinal mix it
// was one value repeated 8 times.
func TestBackoffJitterSpreadsSessions(t *testing.T) {
	p := ResumePolicy{}.normalized()
	distinct := map[time.Duration]bool{}
	for k := int64(1); k <= 8; k++ {
		distinct[p.backoff(3, jitterRNG(k))] = true
	}
	if len(distinct) < 6 {
		t.Fatalf("8 sessions produced only %d distinct third delays; the fleet would redial in lockstep", len(distinct))
	}
}
