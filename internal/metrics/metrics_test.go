package metrics

import (
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("Value = %d, want 8000", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]int64{1, 2, 4, 8})
	for _, v := range []int64{1, 1, 2, 3, 5, 100} {
		h.Observe(v)
	}
	if got := h.Mean(); got != (1+1+2+3+5+100)/6.0 {
		t.Errorf("Mean = %v", got)
	}
	if got := h.Max(); got != 100 {
		t.Errorf("Max = %d", got)
	}
	buckets := h.Buckets()
	if len(buckets) != 5 {
		t.Fatalf("buckets = %d, want 5", len(buckets))
	}
	// v<=1: two; v==2: one; v in 3-4: one; 5-8: one; >8: one.
	wantCounts := []int64{2, 1, 1, 1, 1}
	for i, w := range wantCounts {
		if buckets[i].Count != w {
			t.Errorf("bucket %d (%s) = %d, want %d", i, buckets[i].Label, buckets[i].Count, w)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{512, "512B"},
		{2048, "2.00KiB"},
		{3 * 1024 * 1024, "3.00MiB"},
		{5 * 1024 * 1024 * 1024, "5.00GiB"},
	}
	for _, tc := range cases {
		if got := FormatBytes(tc.n); got != tc.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

func TestByteCounterString(t *testing.T) {
	var bc ByteCounter
	bc.RX.Add(1024)
	bc.TX.Add(100)
	if got := bc.String(); got != "rx=1.00KiB tx=100B" {
		t.Errorf("String = %q", got)
	}
}
