package lakefs

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := NewStore()
	data := []byte("hello tectonic")
	if err := s.Put("a/b", data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("a/b")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q want %q", got, data)
	}
}

func TestPutCopiesData(t *testing.T) {
	s := NewStore()
	data := []byte("immutable")
	if err := s.Put("p", data); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X'
	got, _ := s.Get("p")
	if got[0] != 'i' {
		t.Fatal("Put did not copy caller's buffer")
	}
}

func TestGetMissing(t *testing.T) {
	s := NewStore()
	if _, err := s.Get("nope"); err == nil {
		t.Fatal("expected error for missing blob")
	}
}

func TestPutEmptyPath(t *testing.T) {
	s := NewStore()
	if err := s.Put("", []byte("x")); err == nil {
		t.Fatal("expected error for empty path")
	}
}

func TestReadRange(t *testing.T) {
	s := NewStore()
	if err := s.Put("r", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadRange("r", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "234" {
		t.Fatalf("got %q want 234", got)
	}
	// Short read at tail.
	got, err = s.ReadRange("r", 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "89" {
		t.Fatalf("got %q want 89", got)
	}
	// Offset past end is an error.
	if _, err := s.ReadRange("r", 11, 1); err == nil {
		t.Fatal("expected error for offset past end")
	}
	// Negative range is an error.
	if _, err := s.ReadRange("r", -1, 1); err == nil {
		t.Fatal("expected error for negative offset")
	}
}

func TestIOAccounting(t *testing.T) {
	s := NewStore()
	if err := s.Put("x", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadRange("x", 0, 40); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.WrittenBytes != 100 || st.WriteOps != 1 {
		t.Fatalf("write accounting: %+v", st)
	}
	if st.ReadBytes != 140 || st.ReadOps != 2 {
		t.Fatalf("read accounting: %+v", st)
	}
	if st.StoredBytes != 100 || st.Objects != 1 {
		t.Fatalf("occupancy: %+v", st)
	}

	s.ResetIO()
	st = s.Stats()
	if st.ReadBytes != 0 || st.WrittenBytes != 0 || st.ReadOps != 0 || st.WriteOps != 0 {
		t.Fatalf("ResetIO did not zero counters: %+v", st)
	}
	if st.StoredBytes != 100 {
		t.Fatalf("ResetIO should not affect occupancy: %+v", st)
	}
}

func TestSizeNoCharge(t *testing.T) {
	s := NewStore()
	if err := s.Put("x", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	s.ResetIO()
	n, err := s.Size("x")
	if err != nil || n != 64 {
		t.Fatalf("Size = %d, %v", n, err)
	}
	if st := s.Stats(); st.ReadBytes != 0 || st.ReadOps != 0 {
		t.Fatalf("Size charged a read: %+v", st)
	}
}

// exists reports whether s holds a blob at path, without charging a read.
func exists(s *Store, path string) bool {
	_, err := s.Size(path)
	return err == nil
}

func TestDelete(t *testing.T) {
	s := NewStore()
	for _, p := range []string{"t/1/a", "t/1/b"} {
		if err := s.Put(p, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("t/1/a"); err != nil {
		t.Fatal(err)
	}
	if exists(s, "t/1/a") || !exists(s, "t/1/b") {
		t.Fatal("Delete removed the wrong blobs")
	}
	if err := s.Delete("t/1/a"); err == nil {
		t.Fatal("expected error deleting missing blob")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := fmt.Sprintf("c/%d", i)
			if err := s.Put(p, make([]byte, 10)); err != nil {
				t.Error(err)
				return
			}
			if _, err := s.Get(p); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if st := s.Stats(); st.Objects != 16 {
		t.Fatalf("expected 16 objects, got %d", st.Objects)
	}
}

func TestCatalogPartitions(t *testing.T) {
	c := NewCatalog()
	c.AddFile("tbl", 2, "tbl/hour=2/a", 1)
	c.AddFile("tbl", 1, "tbl/hour=1/a", 1)
	c.AddFile("tbl", 1, "tbl/hour=1/b", 1)

	hours := c.Partitions("tbl")
	if len(hours) != 2 || hours[0] != 1 || hours[1] != 2 {
		t.Fatalf("Partitions = %v", hours)
	}
	files, err := c.Files("tbl", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 || files[0] != "tbl/hour=1/a" {
		t.Fatalf("Files = %v", files)
	}
	all, err := c.AllFiles("tbl")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || all[2] != "tbl/hour=2/a" {
		t.Fatalf("AllFiles = %v", all)
	}
	if _, err := c.Files("tbl", 99); err == nil {
		t.Fatal("expected error for missing partition")
	}
	if _, err := c.Files("missing", 1); err == nil {
		t.Fatal("expected error for missing table")
	}
}

func TestCatalogRetention(t *testing.T) {
	s := NewStore()
	c := NewCatalog()
	for h := int64(0); h < 5; h++ {
		p := fmt.Sprintf("tbl/hour=%d/a", h)
		if err := s.Put(p, []byte("data")); err != nil {
			t.Fatal(err)
		}
		c.AddFile("tbl", h, p, 1)
	}
	dropped, err := c.EnforceRetention(s, "tbl", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 3 || dropped[0] != 0 || dropped[2] != 2 {
		t.Fatalf("dropped = %v", dropped)
	}
	if got := c.Partitions("tbl"); len(got) != 2 || got[0] != 3 {
		t.Fatalf("remaining partitions = %v", got)
	}
	if exists(s, "tbl/hour=0/a") || !exists(s, "tbl/hour=4/a") {
		t.Fatal("retention deleted wrong blobs")
	}
	if _, ok := c.Lookup("tbl/hour=0/a"); ok {
		t.Fatal("Lookup still finds a dropped file")
	}
	if e, ok := c.Lookup("tbl/hour=4/a"); !ok || e.Hour != 4 || e.Rows != 1 {
		t.Fatalf("Lookup of a live file = %+v, %v", e, ok)
	}
	// Retention with enough room is a no-op.
	dropped, err = c.EnforceRetention(s, "tbl", 10)
	if err != nil || dropped != nil {
		t.Fatalf("no-op retention: %v, %v", dropped, err)
	}
}

// TestConcurrentLandingOrder pins the AddFile ordering fix: files landed
// concurrently into one hour surface from Files/AllFiles in publish-
// sequence order — the order AddFile returned — not in map-iteration or
// arrival-race order, and every observer sees the same order.
func TestConcurrentLandingOrder(t *testing.T) {
	c := NewCatalog()
	const writers, perWriter = 8, 16
	type landed struct {
		seq  uint64
		path string
	}
	results := make([][]landed, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				p := fmt.Sprintf("tbl/hour=0/w%d-%03d.dwrf", w, i)
				results[w] = append(results[w], landed{seq: c.AddFile("tbl", 0, p, 1), path: p})
			}
		}(w)
	}
	wg.Wait()

	// The publish sequence totally orders the landings; Files must agree.
	bySeq := make(map[uint64]string, writers*perWriter)
	for _, rs := range results {
		for _, r := range rs {
			if prev, dup := bySeq[r.seq]; dup {
				t.Fatalf("sequence %d handed to both %q and %q", r.seq, prev, r.path)
			}
			bySeq[r.seq] = r.path
		}
	}
	files, err := c.Files("tbl", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != writers*perWriter {
		t.Fatalf("Files returned %d paths, want %d", len(files), writers*perWriter)
	}
	pubs, err := c.PublishedFiles("tbl", 0)
	if err != nil {
		t.Fatal(err)
	}
	all, err := c.AllFiles("tbl")
	if err != nil {
		t.Fatal(err)
	}
	for i, pf := range pubs {
		if i > 0 && pubs[i-1].Seq >= pf.Seq {
			t.Fatalf("publish log out of order at %d: %d then %d", i, pubs[i-1].Seq, pf.Seq)
		}
		if want := bySeq[pf.Seq]; pf.Path != want || files[i] != want || all[i] != want {
			t.Fatalf("index %d: log %q, Files %q, AllFiles %q, want %q (seq %d)",
				i, pf.Path, files[i], all[i], want, pf.Seq)
		}
	}
}

// TestCatalogTailing: Generation moves on every mutation, WaitChange is
// level-triggered, and PublishedFiles returns exactly the delta past a
// cursor — with retention-dropped files never reappearing in it.
func TestCatalogTailing(t *testing.T) {
	s := NewStore()
	c := NewCatalog()
	g0 := c.Generation()
	seal := func(hour int64, name string) {
		path := fmt.Sprintf("tbl/hour=%d/%s", hour, name)
		if err := s.Put(path, []byte("x")); err != nil {
			t.Fatal(err)
		}
		c.AddFile("tbl", hour, path, 1)
	}
	seal(0, "a")
	seal(0, "b")
	if g := c.Generation(); g != g0+2 {
		t.Fatalf("generation %d after two landings from %d", g, g0)
	}
	// Level-triggered: a stale cursor returns immediately.
	gen, err := c.WaitChange(context.Background(), g0)
	if err != nil || gen != g0+2 {
		t.Fatalf("WaitChange(stale) = %d, %v", gen, err)
	}
	// Blocking wait observes the next landing.
	type wake struct {
		gen uint64
		err error
	}
	woke := make(chan wake, 1)
	go func() {
		g, err := c.WaitChange(context.Background(), gen)
		woke <- wake{g, err}
	}()
	seal(3600, "c")
	w := <-woke
	if w.err != nil || w.gen != gen+1 {
		t.Fatalf("WaitChange woke with %d, %v; want %d", w.gen, w.err, gen+1)
	}
	// Delta query: everything past the second landing's sequence.
	pubs, err := c.PublishedFiles("tbl", 2)
	if err != nil || len(pubs) != 1 || pubs[0].Path != "tbl/hour=3600/c" {
		t.Fatalf("PublishedFiles(2) = %+v, %v", pubs, err)
	}
	// Retention drops hour 0; the delta past cursor 0 holds only live files,
	// and the generation moved again.
	if _, err := c.DropPartition(s, "tbl", 0); err != nil {
		t.Fatal(err)
	}
	pubs, err = c.PublishedFiles("tbl", 0)
	if err != nil || len(pubs) != 1 || pubs[0].Path != "tbl/hour=3600/c" {
		t.Fatalf("post-drop PublishedFiles(0) = %+v, %v", pubs, err)
	}
	if g := c.Generation(); g != gen+2 {
		t.Fatalf("generation %d after drop, want %d", g, gen+2)
	}
	// A cancelled wait returns promptly with ctx.Err.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.WaitChange(ctx, c.Generation()); err == nil {
		t.Fatal("WaitChange survived a cancelled context")
	}
}

// TestDropPartitionInvalidation pins the stale-cache-after-retention fix
// at the catalog layer: DropPartition deletes the blobs from the store
// BEFORE notifying invalidation subscribers, and hands subscribers
// exactly the dropped paths — so a cache that evicts on the
// notification can never refill from a blob that still exists.
func TestDropPartitionInvalidation(t *testing.T) {
	s := NewStore()
	c := NewCatalog()
	for _, hour := range []int64{0, 3600} {
		for i := 0; i < 3; i++ {
			path := fmt.Sprintf("tbl/hour=%d/part-%d", hour, i)
			if err := s.Put(path, []byte("x")); err != nil {
				t.Fatal(err)
			}
			c.AddFile("tbl", hour, path, 1)
		}
	}
	var mu sync.Mutex
	var got [][]string
	deletedFirst := true
	c.OnInvalidate(func(paths []string) {
		mu.Lock()
		defer mu.Unlock()
		for _, p := range paths {
			if exists(s, p) {
				deletedFirst = false
			}
		}
		got = append(got, append([]string(nil), paths...))
	})
	n, err := c.DropPartition(s, "tbl", 0)
	if err != nil || n != 3 {
		t.Fatalf("DropPartition = %d, %v", n, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || len(got[0]) != 3 {
		t.Fatalf("subscriber saw %v, want one notification of 3 paths", got)
	}
	for i, p := range got[0] {
		if want := fmt.Sprintf("tbl/hour=0/part-%d", i); p != want {
			t.Fatalf("notified path %q, want %q", p, want)
		}
	}
	if !deletedFirst {
		t.Fatal("subscriber ran while dropped blobs still existed in the store")
	}
	// The surviving partition is untouched and a second drop of the same
	// hour is a clean no-op with no spurious notification.
	if fs, err := c.Files("tbl", 3600); err != nil || len(fs) != 3 {
		t.Fatalf("surviving partition: %v, %v", fs, err)
	}
	if n, err := c.DropPartition(s, "tbl", 0); err != nil || n != 0 {
		t.Fatalf("re-drop = %d, %v", n, err)
	}
	if len(got) != 1 {
		t.Fatal("empty drop notified subscribers")
	}
}
