package dpp

import (
	"context"
	"fmt"
	"time"
)

// ScaleTarget is what an AutoScaler controls: anything that exposes the
// two starvation signals and accepts worker-pool resizes. *Session is the
// production implementation; controller tests use fakes so decisions are
// pinned without running real scans.
type ScaleTarget interface {
	// SchedulerStats snapshots the monotone stall counters and the
	// current pool size.
	SchedulerStats() SchedulerStats
	// Resize requests a new worker count and returns the count actually
	// in effect.
	Resize(n int) int
}

// AutoScalerConfig shapes the per-session scaling controller.
type AutoScalerConfig struct {
	// MinReaders and MaxReaders bound the pool. Defaults: 1 and
	// DefaultMaxReaders.
	MinReaders, MaxReaders int
	// Interval is the controller's decision period. Default
	// DefaultAutoScaleInterval.
	Interval time.Duration
	// Threshold is the minimum dominant stall accumulated over one
	// interval before the controller acts — the hysteresis that keeps an
	// idle or balanced session from flapping. Default: Interval / 8.
	Threshold time.Duration
	// Clock drives decision ticks and defaults to the wall clock; tests
	// inject a manual-advance clock (testutil.Clock) for reproducible
	// decision sequences.
	Clock Clock
}

// DefaultMaxReaders and DefaultAutoScaleInterval are the controller
// defaults: a pool cap comfortably past the container-scale sweet spot,
// and a period long enough to integrate a meaningful stall sample but
// short next to any scan worth scaling.
const (
	DefaultMaxReaders        = 8
	DefaultAutoScaleInterval = 20 * time.Millisecond
)

func (c AutoScalerConfig) withDefaults() AutoScalerConfig {
	if c.MinReaders == 0 {
		c.MinReaders = 1
	}
	if c.MaxReaders == 0 {
		c.MaxReaders = DefaultMaxReaders
	}
	if c.Interval == 0 {
		c.Interval = DefaultAutoScaleInterval
	}
	if c.Threshold == 0 {
		c.Threshold = c.Interval / 8
	}
	if c.Clock == nil {
		c.Clock = SystemClock{}
	}
	return c
}

func (c AutoScalerConfig) validate() error {
	if c.MinReaders < 1 {
		return fmt.Errorf("dpp: autoscale MinReaders %d < 1", c.MinReaders)
	}
	if c.MaxReaders < c.MinReaders {
		return fmt.Errorf("dpp: autoscale MaxReaders %d < MinReaders %d", c.MaxReaders, c.MinReaders)
	}
	if c.Interval < 0 || c.Threshold < 0 {
		return fmt.Errorf("dpp: negative autoscale interval/threshold")
	}
	return nil
}

// AutoScaler closes the paper's reader-scaling loop per session
// ("readers for each job are scaled to meet trainers' ingestion
// bandwidth demands"): each interval it compares how much new time the
// session spent starved for fill workers (WorkerStall — the merge waited
// on decodes) against how much it spent starved for the consumer
// (ConsumerStall — the merge waited on a full output buffer, which for a
// remote session is ultimately an exhausted dppnet credit window), and
// steps the pool one worker up or down within [MinReaders, MaxReaders]
// when one signal dominates. Because sessions reassemble their stream
// through an ordered work queue, resizes never change the batch stream —
// only its pace.
//
// An AutoScaler is single-goroutine: Run loops Step on the configured
// Clock; Step may also be called directly for deterministic tests.
type AutoScaler struct {
	target ScaleTarget
	cfg    AutoScalerConfig

	lastWorker, lastConsumer time.Duration
}

// NewAutoScaler validates cfg and builds a controller for target. The
// controller holds no goroutine until Run.
func NewAutoScaler(target ScaleTarget, cfg AutoScalerConfig) (*AutoScaler, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &AutoScaler{target: target, cfg: cfg}, nil
}

// Step runs one observe→decide→act round and returns the worker count in
// effect afterwards plus whether it resized. The rule, in priority
// order: clamp a pool outside [Min, Max] back into bounds; scale up one
// worker when new worker stall dominates (≥ Threshold and more than
// double the new consumer stall); scale down one when consumer stall
// dominates symmetrically; otherwise hold.
func (a *AutoScaler) Step() (workers int, resized bool) {
	st := a.target.SchedulerStats()
	dWorker := st.WorkerStall - a.lastWorker
	dConsumer := st.ConsumerStall - a.lastConsumer
	a.lastWorker, a.lastConsumer = st.WorkerStall, st.ConsumerStall

	cur := st.Workers
	switch {
	case cur > a.cfg.MaxReaders:
		return a.target.Resize(a.cfg.MaxReaders), true
	case cur < a.cfg.MinReaders:
		return a.target.Resize(a.cfg.MinReaders), true
	case dWorker >= a.cfg.Threshold && dWorker > 2*dConsumer && cur < a.cfg.MaxReaders:
		return a.target.Resize(cur + 1), true
	case dConsumer >= a.cfg.Threshold && dConsumer > 2*dWorker && cur > a.cfg.MinReaders:
		return a.target.Resize(cur - 1), true
	}
	return cur, false
}

// Run steps the controller every Interval until ctx is cancelled. The
// session owns the goroutine: it starts Run under the session context,
// so teardown stops the controller before the pool is waited out.
func (a *AutoScaler) Run(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-a.cfg.Clock.After(a.cfg.Interval):
			a.Step()
		}
	}
}
