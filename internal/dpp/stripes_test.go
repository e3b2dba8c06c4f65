package dpp_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dpp"
	"repro/internal/dpp/dppnet"
	"repro/internal/dwrf"
	"repro/internal/etl"
	"repro/internal/lakefs"
	"repro/internal/reader"
	"repro/internal/storage"
)

// newStripedEnv lands the determinism tests' table with eight 32-row
// stripes to a 256-row file, so a file's first batch (64 rows, or 48) lies
// in its first two stripes and most of the file comes after it.
func newStripedEnv(t testing.TB) *testEnv {
	t.Helper()
	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 2, UserElem: 3, Item: 2, Dense: 4, SeqLen: 24, Seed: 11,
	})
	samples := etl.ClusterBySession(datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: 200, MeanSamplesPerSession: 6, Seed: 99,
	}).GeneratePartition())
	store, catalog := lakefs.NewStore(), lakefs.NewCatalog()
	if _, err := dwrf.WritePartition(store, catalog, "tbl", 0, schema, samples,
		dwrf.TableOptions{RowsPerFile: 256, Writer: dwrf.WriterOptions{StripeRows: 32}}); err != nil {
		t.Fatal(err)
	}
	return &testEnv{store: store, catalog: catalog, samples: samples}
}

// stripeRange is the byte extent of stripe k of the file at path.
func stripeRange(t testing.TB, store storage.Backend, path string, k int) (off, n int64) {
	t.Helper()
	data, err := store.Get(path)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := dwrf.OpenReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if k >= fr.NumStripes() {
		t.Fatalf("%s has %d stripes, want stripe %d", path, fr.NumStripes(), k)
	}
	return fr.StripeByteRange(k)
}

// parkedStripeStore holds the read of one stripe of one file — the read at
// the stripe's offset, the first a fill makes of it under any projection —
// until release is closed. arrived is closed when that read comes in.
type parkedStripeStore struct {
	storage.Backend
	path             string
	off              int64
	once             sync.Once
	arrived, release chan struct{}
}

func (s *parkedStripeStore) ReadRange(path string, off, n int64) ([]byte, error) {
	if path == s.path && off == s.off {
		s.once.Do(func() { close(s.arrived) })
		<-s.release
	}
	return s.Backend.ReadRange(path, off, n)
}

// TestFirstBatchBeforeFileIsFilled: fill hands the cutter stripes, not
// files. Over a store that parks the read of the first file's third stripe,
// Next returns batch 0 — which lies in the first two — while that read is
// still parked and six of the file's eight stripes have not been fetched:
// with one worker and with two, on a local session and through a dppnet
// server. Released, the stream runs on to the serial reference's end, byte
// for byte, with a serial scan's counters.
func TestFirstBatchBeforeFileIsFilled(t *testing.T) {
	env := newStripedEnv(t)
	spec := dedupSpec()
	wantEnc, wantStats := serialReference(t, env, spec)
	files, err := env.catalog.AllFiles(spec.Table)
	if err != nil {
		t.Fatal(err)
	}
	off, _ := stripeRange(t, env.store, files[0], 2)

	for _, readers := range []int{1, 2} {
		for _, remote := range []bool{false, true} {
			t.Run(fmt.Sprintf("readers=%d/remote=%v", readers, remote), func(t *testing.T) {
				store := &parkedStripeStore{Backend: env.store, path: files[0], off: off,
					arrived: make(chan struct{}), release: make(chan struct{})}
				released := false
				release := func() {
					if !released {
						released = true
						close(store.release)
					}
				}
				defer release() // a failure must not leave a worker parked under Close
				svc, err := dpp.New(dpp.Config{Backend: store, Catalog: env.catalog})
				if err != nil {
					t.Fatal(err)
				}
				defer svc.Close()

				// A test that fails here fails by this deadline, not by hanging.
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				var sess dpp.Stream
				var stats func() reader.Stats
				if remote {
					ln, err := net.Listen("tcp", "127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					srv := dppnet.NewServer(svc)
					served := make(chan error, 1)
					go func() { served <- srv.Serve(ln) }()
					defer func() {
						srv.Close()
						if err := <-served; err != nil {
							t.Errorf("Serve returned %v", err)
						}
					}()
					rs, err := dppnet.NewClient(ln.Addr().String()).Open(ctx, dpp.Spec{Spec: spec, Readers: readers})
					if err != nil {
						t.Fatal(err)
					}
					sess, stats = rs, func() reader.Stats { st, _ := rs.Stats(); return st.Reader }
				} else {
					ls, err := svc.Open(ctx, dpp.Spec{Spec: spec, Readers: readers})
					if err != nil {
						t.Fatal(err)
					}
					sess, stats = ls, func() reader.Stats { return ls.Stats().Reader }
				}
				defer sess.Close()

				first, err := sess.Next(ctx)
				if err != nil {
					t.Fatalf("first batch with the file's third stripe parked: %v", err)
				}
				gotEnc := [][]byte{encodeBatch(t, first)}
				if !bytes.Equal(gotEnc[0], wantEnc[0]) {
					t.Fatal("batch 0, delivered before its file was filled, differs from the serial reference")
				}
				select {
				case <-store.arrived: // the worker is past the first two stripes and parked on the third
				case <-ctx.Done():
					t.Fatal("the read of the third stripe never arrived")
				}
				release()
				for {
					b, err := sess.Next(ctx)
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					gotEnc = append(gotEnc, encodeBatch(t, b))
				}
				if len(gotEnc) != len(wantEnc) {
					t.Fatalf("%d batches, serial reference %d", len(gotEnc), len(wantEnc))
				}
				for i := range wantEnc {
					if !bytes.Equal(gotEnc[i], wantEnc[i]) {
						t.Fatalf("batch %d differs from the serial reference", i)
					}
				}
				if got, want := counters(stats()), counters(wantStats); got != want {
					t.Fatalf("counters %v, serial reference %v", got, want)
				}
			})
		}
	}
}

func encodeBatch(t testing.TB, b *reader.Batch) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := b.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDamagedStripeDeliversThePrefixThenTheError pins what a scan owes its
// consumer when a file goes bad part-way: the serial reference stream's
// prefix, then the error. With stripe 3 of the second file damaged (its
// header claims one row more than the footer records), a serial Run and
// sessions of 1, 2 and 4 workers all deliver exactly the batches that lie
// wholly in the rows before that stripe — the whole first file and three
// stripes of the second, whatever the batch size does at the file boundary —
// each byte-identical to the undamaged table's, and then the same error.
func TestDamagedStripeDeliversThePrefixThenTheError(t *testing.T) {
	env := newStripedEnv(t)
	files, err := env.catalog.AllFiles("tbl")
	if err != nil {
		t.Fatal(err)
	}
	const badFile, badStripe, stripeRows, rowsPerFile = 1, 3, 32, 256

	damaged := lakefs.NewStore()
	for i, f := range files {
		data, err := env.store.Get(f)
		if err != nil {
			t.Fatal(err)
		}
		if i == badFile {
			off, _ := stripeRange(t, env.store, f, badStripe)
			data = append([]byte(nil), data...)
			if data[off] != stripeRows {
				t.Fatalf("stripe %d's header starts with %#x, want its row count %d", badStripe, data[off], stripeRows)
			}
			data[off]++
		}
		if err := damaged.Put(f, data); err != nil {
			t.Fatal(err)
		}
	}

	for _, spec := range []reader.Spec{dedupSpec(), kjtSpec()} { // batch 64 divides the file, 48 carries rows into the bad one
		wantEnc, _ := serialReference(t, env, spec)
		prefix := (badFile*rowsPerFile + badStripe*stripeRows) / spec.BatchSize
		check := func(what string, got [][]byte, err error) {
			t.Helper()
			if err == nil || err == io.EOF {
				t.Fatalf("%s: scan of a damaged file ended with %v", what, err)
			}
			if len(got) != prefix {
				t.Fatalf("%s: %d batches before the error, want the %d that lie wholly before the damaged stripe", what, len(got), prefix)
			}
			for i := range got {
				if !bytes.Equal(got[i], wantEnc[i]) {
					t.Fatalf("%s: batch %d differs from the undamaged table's", what, i)
				}
			}
		}

		r, err := reader.NewReader(damaged, spec)
		if err != nil {
			t.Fatal(err)
		}
		var serial [][]byte
		wantErr := r.Run(context.Background(), files, func(b *reader.Batch) error {
			serial = append(serial, encodeBatch(t, b))
			return nil
		})
		check(fmt.Sprintf("batch %d, serial Run", spec.BatchSize), serial, wantErr)

		svc, err := dpp.New(dpp.Config{Backend: damaged, Catalog: env.catalog})
		if err != nil {
			t.Fatal(err)
		}
		for _, readers := range []int{1, 2, 4} {
			sess, err := svc.Open(context.Background(), dpp.Spec{Spec: spec, Readers: readers})
			if err != nil {
				t.Fatal(err)
			}
			var got [][]byte
			var gotErr error
			for {
				b, err := sess.Next(context.Background())
				if err != nil {
					gotErr = err
					break
				}
				got = append(got, encodeBatch(t, b))
			}
			what := fmt.Sprintf("batch %d, session of %d", spec.BatchSize, readers)
			check(what, got, gotErr)
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s: error %q, serial Run's %q", what, gotErr, wantErr)
			}
			sess.Close()
		}
		svc.Close()
	}
}
