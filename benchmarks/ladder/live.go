package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"time"

	"repro/internal/dpp"
	"repro/internal/dpp/landing"
	"repro/internal/dwrf"
)

// landPeriod is the open-loop schedule: one 256-row chunk every 125 ms,
// 2048 rows/s — about a fifth of one core each for sealing and filling.
const landPeriod = 125 * time.Millisecond

// dueTime is when chunk i of an open loop started at t0 is due. Lag is
// timed from here, not from when the lander got round to it, so a stall
// charges every chunk it delayed.
func dueTime(t0 time.Time, i int, period time.Duration) time.Time {
	return t0.Add(time.Duration(i) * period)
}

// chunksInWindow is how many chunks fall due in a window.
func chunksInWindow(window, period time.Duration) int {
	n := int((window + period - 1) / period)
	if n < 1 {
		n = 1
	}
	return n
}

// runLiveTail lands chunks of the set-up partition on a fixed schedule
// while one Follow session consumes them. The whole stream is hashed as
// it arrives and checked afterwards against a cold serial run over the
// files the catalog published: the verified pass is the timed pass.
func runLiveTail(ctx context.Context, r *rig, fx *fixture, window time.Duration, tr *Trace) (*meas, error) {
	m := &meas{}
	// A lander failure cancels the consumer, which would otherwise wait
	// for chunks that will never land.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if len(fx.chunks) < 2 {
		return nil, fmt.Errorf("live_tail: partition too small to chunk")
	}
	svc := r.services[0]
	// A fresh table per run: a second run on the same fixture must not
	// start by scanning what the first one landed.
	fx.liveRuns++
	liveTable := fmt.Sprintf("live%d", fx.liveRuns)
	w, err := landing.NewWriter(landing.Config{
		Store: fx.store, Catalog: fx.catalog, Table: liveTable, Schema: fx.schema,
		FlushRows: chunkRows, Cluster: true, Writer: dwrf.WriterOptions{StripeRows: stripeRows},
	})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	spec := fx.spec
	spec.Table = liveTable

	// The table must exist before a session can tail it: land one chunk,
	// open, and take its batch before the clock starts.
	land := func(tk *track, i int) error {
		c := fx.chunks[i%len(fx.chunks)]
		hour := int64(i / len(fx.chunks)) // a new partition per cycle
		id := tk.begin("landing.land_joined")
		_, err := w.LandJoined(hour, c.feats, c.events)
		tk.end(id)
		if err != nil {
			return err
		}
		id = tk.begin("landing.flush")
		err = w.Flush()
		tk.end(id)
		return err
	}
	if err := land(nil, 0); err != nil {
		return nil, err
	}
	ctk := tr.newTrack(0)
	id := ctk.begin("dpp.open")
	sess, err := svc.Open(ctx, dpp.Spec{Spec: spec, Readers: 1, Follow: true})
	ctk.end(id)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	h := sha256.New()
	b, err := sess.Next(ctx)
	if err != nil {
		return nil, fmt.Errorf("live_tail: priming batch: %w", err)
	}
	if err := b.Encode(h); err != nil {
		return nil, err
	}

	n := chunksInWindow(window, landPeriod)
	rss := startRSSSampler(50 * time.Millisecond)
	sl := newSlicer(window)
	t0 := sl.start0

	landed := make(chan error, 1)
	late := make([]time.Duration, 0, n)
	go func() {
		ltk := tr.newTrack(0)
		for i := 0; i < n; i++ {
			due := dueTime(t0, i, landPeriod)
			time.Sleep(time.Until(due))
			late = append(late, time.Since(due))
			if err := land(ltk, i+1); err != nil {
				cancel()
				landed <- err
				return
			}
		}
		landed <- nil
	}()

	// Chunk i is rows [i*256, (i+1)*256) of the tail, so it is delivered
	// by the batch that carries the stream past its last row.
	var rows int64
	lagMax := 0
	last := t0
	for delivered := 0; delivered < n; {
		id := ctk.begin("dpp.next")
		b, err := sess.Next(ctx)
		ctk.end(id)
		now := time.Now()
		if err != nil {
			m.fail(n-delivered, fmt.Errorf("next: %w", err))
			break
		}
		m.Ops++
		if b.Size != batchSize || len(b.Labels) != b.Size {
			m.Failed++
		}
		if err := b.Encode(h); err != nil {
			m.fail(0, err)
		}
		rows += int64(b.Size)
		for ; delivered < n && int64(delivered+1)*chunkRows <= rows; delivered++ {
			m.Lags = append(m.Lags, now.Sub(dueTime(t0, delivered, landPeriod)))
		}
		m.Gaps = append(m.Gaps, now.Sub(last))
		last = now
		sl.progress(rows)
		if lag := sess.FollowLag(); lag > lagMax {
			lagMax = lag
		}
	}
	if err := <-landed; err != nil {
		m.fail(0, fmt.Errorf("lander: %w", err))
	}
	// Every landed row is delivered; the window runs to its scheduled end
	// so rows_per_s reads the schedule unless the system fell behind it.
	time.Sleep(time.Until(dueTime(t0, n, landPeriod)))
	sl.finish(m, rows)
	m.PeakRSS = rss.Stop()
	m.Rows = rows
	m.Ops += int64(n) - int64(len(m.Lags)) // chunks never delivered stay attempted
	m.Late = late
	m.Passes = 1
	m.FollowLag = lagMax

	// Drain: nothing more lands, so EndFollow must turn straight into EOF.
	sess.EndFollow()
	for {
		b, err := sess.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			m.fail(1, fmt.Errorf("drain: %w", err))
			break
		}
		if err := b.Encode(h); err != nil {
			m.fail(0, err)
		}
	}
	st := sess.Stats()
	m.EgressBytes = st.Reader.SentBytes
	m.RowsDecoded = st.Reader.RowsDecoded

	pubs, err := fx.catalog.PublishedFiles(liveTable, 0)
	if err != nil {
		return nil, err
	}
	files := make([]string, len(pubs))
	for i, p := range pubs {
		files[i] = p.Path
		size, err := fx.store.Size(p.Path)
		if err != nil {
			return nil, err
		}
		m.StoredBytes += size
	}
	m.FilesLanded = w.Stats().FilesLanded
	cold, err := reference(fx.store, spec, files)
	if err != nil {
		return nil, err
	}
	var got [sha256.Size]byte
	h.Sum(got[:0])
	if got != cold.Digest {
		m.mismatch = true
		m.Failed = m.Ops
	}
	// Bytes per row are over everything landed and delivered, the
	// priming chunk included, as the session's own counters are.
	m.StoredRows, m.EgressRows = int64(cold.Rows), int64(cold.Rows)
	return m, nil
}
