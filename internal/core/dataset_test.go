package core

import (
	"testing"
	"time"

	"repro/internal/testutil"
)

// TestLandLive: the live landing loop starts at the hour after the
// catalog's newest, lands hour h as the generator's partition of
// max(Sessions/4, 1) sessions drawn from Seed+2000+h, and with retention
// keeps only the newest partitions, counting every hour it dropped.
func TestLandLive(t *testing.T) {
	cfg := TrainTableConfig{Sessions: 8, Batch: 32, Seed: 5}
	tt, err := BuildTrainTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tt.LandLive(0, 0, nil); err == nil {
		t.Fatal("a zero landing interval was accepted")
	}
	const keep = 2
	w, stop, err := tt.LandLive(5*time.Millisecond, keep, func(err error) { t.Error(err) })
	if err != nil {
		t.Fatal(err)
	}
	newest := func() int64 {
		hours := tt.Catalog.Partitions(tt.Spec.Table)
		return hours[len(hours)-1]
	}
	testutil.Eventually(t, func() bool { return newest() >= 4 }, "three live hours never landed")
	dropped := stop()
	if again := stop(); again != dropped {
		t.Fatalf("a second stop reported %d dropped hours, the first %d", again, dropped)
	}

	// Hours 0 and 1 were landed by BuildTrainTable and live hours 2..last
	// followed. Retention runs after each landing, so it kept the newest
	// two published hours; the hour still buffered then was published by
	// stop's close.
	hours := tt.Catalog.Partitions(tt.Spec.Table)
	last := hours[len(hours)-1]
	if n := len(hours); n < keep || n > keep+1 || hours[0] != last-int64(n-1) {
		t.Fatalf("partitions after retention %v, want the newest %d or %d", hours, keep, keep+1)
	}
	if want := int(last) + 1 - len(hours); dropped != want {
		t.Fatalf("retention dropped %d of hours 0..%d, want %d", dropped, last, want)
	}
	pubs, err := tt.Catalog.PublishedFiles(tt.Spec.Table, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[int64]int{}
	for _, pf := range pubs {
		rows[pf.Hour] += pf.Rows
	}
	for _, h := range hours {
		if want := len(generate(tt.Schema, 2, cfg.Seed+2000+h)); rows[h] != want {
			t.Fatalf("hour %d landed %d rows, want the %d of its generated partition", h, rows[h], want)
		}
	}
	var live int64
	for h := int64(2); h <= last; h++ {
		live += int64(len(generate(tt.Schema, 2, cfg.Seed+2000+h)))
	}
	if st := w.Stats(); st.RowsLanded != live {
		t.Fatalf("writer landed %d rows, want the %d of live hours 2..%d", st.RowsLanded, live, last)
	}
}
