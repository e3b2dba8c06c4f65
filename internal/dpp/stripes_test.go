package dpp_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dpp"
	"repro/internal/dpp/dppnet"
	"repro/internal/dpp/dppshard"
	"repro/internal/dpp/front"
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
func stripeRange(t testing.TB, store *lakefs.Store, path string, k int) (off, n int64) {
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

// serveOn starts a dppnet server for svc, behind gate when it is not nil,
// on a kernel-chosen port and returns its address and the function that
// stops it.
func serveOn(t *testing.T, svc *dpp.Service, gate *front.Gate) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := dppnet.NewServer(svc)
	srv.Gate = gate
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	return ln.Addr().String(), func() {
		srv.Close()
		if err := <-served; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	}
}

// streamPath is one way a batch stream reaches its consumer. open starts
// what it needs over backend — a service, or two, their servers — opens the
// stream, and returns it with its reader counters (valid at io.EOF), the
// services behind it, and the function that stops what it started.
type streamPath struct {
	name string
	// wire says the stream crosses a dppnet server, which reports a scan's
	// error wrapped in its own.
	wire bool
	open openPath
}

type openPath func(t *testing.T, ctx context.Context, backend storage.Backend, catalog storage.Catalog, spec reader.Spec, files []string) (
	sess dpp.Stream, stats func() reader.Stats, svcs []*dpp.Service, stop func())

// streamPaths are the paths a file's batches can take to a trainer: fill's
// stripes to the cutter of an unshared session (readers workers, local or
// through a dppnet server); a ScanCache compute's batches to the cutter of a
// ShareScans session, the same two ways; and the batch frames of two shards'
// unit streams through a fleet session's merge.
func streamPaths(readers ...int) []streamPath {
	single := func(spec func(reader.Spec) dpp.Spec, remote bool) openPath {
		return func(t *testing.T, ctx context.Context, backend storage.Backend, catalog storage.Catalog, rs reader.Spec, _ []string) (dpp.Stream, func() reader.Stats, []*dpp.Service, func()) {
			svc, err := dpp.New(dpp.Config{Backend: backend, Catalog: catalog})
			if err != nil {
				t.Fatal(err)
			}
			if !remote {
				ls, err := svc.Open(ctx, spec(rs))
				if err != nil {
					t.Fatal(err)
				}
				return ls, func() reader.Stats { return ls.Stats().Reader }, []*dpp.Service{svc}, func() { svc.Close() }
			}
			addr, stop := serveOn(t, svc, nil)
			rs2, err := dppnet.NewClient(addr).Open(ctx, spec(rs))
			if err != nil {
				t.Fatal(err)
			}
			return rs2, func() reader.Stats { st, _ := rs2.Stats(); return st.Reader }, []*dpp.Service{svc}, func() { stop(); svc.Close() }
		}
	}
	var paths []streamPath
	for _, n := range readers {
		for _, remote := range []bool{false, true} {
			paths = append(paths, streamPath{fmt.Sprintf("readers=%d/remote=%v", n, remote), remote,
				single(func(rs reader.Spec) dpp.Spec { return dpp.Spec{Spec: rs, Readers: n} }, remote)})
		}
	}
	for _, remote := range []bool{false, true} {
		paths = append(paths, streamPath{fmt.Sprintf("shared/remote=%v", remote), remote,
			single(func(rs reader.Spec) dpp.Spec { return dpp.Spec{Spec: rs, ShareScans: true} }, remote)})
	}
	fleet := func(t *testing.T, ctx context.Context, backend storage.Backend, catalog storage.Catalog, rs reader.Spec, files []string) (dpp.Stream, func() reader.Stats, []*dpp.Service, func()) {
		var svcs []*dpp.Service
		var addrs []string
		var stops []func()
		for i := 0; i < 2; i++ {
			svc, err := dpp.New(dpp.Config{Backend: backend, Catalog: catalog})
			if err != nil {
				t.Fatal(err)
			}
			addr, stop := serveOn(t, svc, nil)
			svcs, addrs, stops = append(svcs, svc), append(addrs, addr), append(stops, stop, func() { svc.Close() })
		}
		f, err := dppshard.New(dppshard.Config{Addrs: addrs})
		if err != nil {
			t.Fatal(err)
		}
		fs, err := f.Open(ctx, dpp.Spec{Spec: rs, ShareScans: true, Files: files})
		if err != nil {
			t.Fatal(err)
		}
		return fs, func() reader.Stats { return fs.Stats().Reader }, svcs, func() {
			for _, stop := range stops {
				stop()
			}
		}
	}
	return append(paths, streamPath{"fleet", true, fleet})
}

// TestFirstBatchBeforeFileIsFilled: a file is served while it is read. Over
// a store that parks the read of the first file's third stripe, Next returns
// batch 0 — which lies in the first two — while that read is still parked and
// six of the file's eight stripes have not been fetched: with one worker and
// with two, on a local session and through a dppnet server; on a ShareScans
// session, whose batches come out of the ScanCache's compute while it runs,
// both ways; and on a two-shard fleet, whose shard ships the batch frame
// before the file's closing record exists. Released, the stream runs on to
// the serial reference's end, byte for byte, with a serial scan's counters.
func TestFirstBatchBeforeFileIsFilled(t *testing.T) {
	env := newStripedEnv(t)
	spec := dedupSpec()
	wantEnc, wantStats := serialReference(t, env, spec)
	files, err := env.catalog.AllFiles(spec.Table)
	if err != nil {
		t.Fatal(err)
	}
	off, _ := stripeRange(t, env.store, files[0], 2)

	for _, path := range streamPaths(1, 2) {
		t.Run(path.name, func(t *testing.T) {
			store := &parkedStripeStore{Backend: env.store, path: files[0], off: off,
				arrived: make(chan struct{}), release: make(chan struct{})}
			released := false
			release := func() {
				if !released {
					released = true
					close(store.release)
				}
			}
			// A test that fails here fails by this deadline, not by hanging.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			sess, stats, _, stop := path.open(t, ctx, store, env.catalog, spec, files)
			defer stop()
			defer sess.Close()
			defer release() // a failure must not leave a worker parked under Close

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

func encodeBatch(t testing.TB, b *reader.Batch) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := b.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// damagedTable is env's table with stripe badStripe of file badFile damaged:
// its header claims one row more than the footer records.
func damagedTable(t *testing.T, env *testEnv, files []string, badFile, badStripe, stripeRows int) *lakefs.Store {
	t.Helper()
	damaged := lakefs.NewStore()
	for i, f := range files {
		data, err := env.store.Get(f)
		if err != nil {
			t.Fatal(err)
		}
		if i == badFile {
			off, _ := stripeRange(t, env.store, f, badStripe)
			data = append([]byte(nil), data...)
			if int(data[off]) != stripeRows {
				t.Fatalf("stripe %d's header starts with %#x, want its row count %d", badStripe, data[off], stripeRows)
			}
			data[off]++
		}
		if err := damaged.Put(f, data); err != nil {
			t.Fatal(err)
		}
	}
	return damaged
}

// TestDamagedStripeDeliversThePrefixThenTheError pins what a scan owes its
// consumer when a file goes bad part-way: the serial reference stream's
// prefix, then the error. With stripe 3 of the second file damaged (its
// header claims one row more than the footer records), a serial Run and
// every path a stream can take — unshared sessions of 1, 2 and 4 workers,
// ShareScans sessions, either of them through a dppnet server, a two-shard
// fleet — deliver exactly the batches that lie wholly in the rows before
// that stripe — the whole first file and three stripes of the second,
// whatever the batch size does at the file boundary — each byte-identical to
// the undamaged table's, and then the same error. A catalog that records one
// row more for the second file than its footer does is caught on every path
// the moment the footer is read, before any of the file's rows: the batches
// of the first file whole, then an error naming both counts. A unit session
// delivers the same prefix of its own stream, piece for piece. The damaged
// file leaves no ScanCache entry.
func TestDamagedStripeDeliversThePrefixThenTheError(t *testing.T) {
	env := newStripedEnv(t)
	files, err := env.catalog.AllFiles("tbl")
	if err != nil {
		t.Fatal(err)
	}
	const badFile, badStripe, stripeRows, rowsPerFile = 1, 3, 32, 256
	damaged := damagedTable(t, env, files, badFile, badStripe, stripeRows)
	miscounted := lakefs.NewCatalog()
	for i, f := range files {
		e, _ := env.catalog.Lookup(f)
		if i == badFile {
			e.Rows++
		}
		miscounted.AddFile("tbl", e.Hour, f, e.Rows)
	}
	uncached := func(what string, svcs []*dpp.Service) {
		t.Helper()
		for _, svc := range svcs {
			for _, e := range svc.ScanCache().Entries() {
				if e.File == files[badFile] {
					t.Fatalf("%s: the damaged file is cached at carry %d", what, e.Carry)
				}
			}
		}
	}

	for _, spec := range []reader.Spec{dedupSpec(), kjtSpec()} { // batch 64 divides the file, 48 carries rows into the bad one
		wantEnc, _ := serialReference(t, env, spec)
		check := func(what string, got [][]byte, err error, prefix int) {
			t.Helper()
			if err == nil || err == io.EOF {
				t.Fatalf("%s: scan of a damaged file ended with %v", what, err)
			}
			if len(got) != prefix {
				t.Fatalf("%s: %d batches before the error, want the %d that lie wholly before the damage", what, len(got), prefix)
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
		stripePrefix := (badFile*rowsPerFile + badStripe*stripeRows) / spec.BatchSize
		check(fmt.Sprintf("batch %d, serial Run", spec.BatchSize), serial, wantErr, stripePrefix)

		for _, damage := range []struct {
			name    string
			store   storage.Backend
			catalog storage.Catalog
			prefix  int
			says    string
		}{
			{"damaged stripe", damaged, env.catalog, stripePrefix, wantErr.Error()},
			{"miscounted file", env.store, miscounted, badFile * rowsPerFile / spec.BatchSize,
				fmt.Sprintf("reader: %s: the footer counts %d rows, the catalog %d", files[badFile], rowsPerFile, rowsPerFile+1)},
		} {
			for _, path := range streamPaths(1, 2, 4) {
				what := fmt.Sprintf("batch %d, %s, %s", spec.BatchSize, damage.name, path.name)
				sess, _, svcs, stop := path.open(t, context.Background(), damage.store, damage.catalog, spec, files)
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
				check(what, got, gotErr, damage.prefix)
				if gotErr.Error() != damage.says && !(path.wire && strings.Contains(gotErr.Error(), damage.says)) {
					t.Fatalf("%s: error %q, want %q", what, gotErr, damage.says)
				}
				uncached(what, svcs)
				sess.Close()
				stop()
			}
		}

		// A unit session's stream is its own — each file cut on a batch
		// boundary, piece by piece — and owes its consumer the same: over the
		// damaged table, the undamaged table's pieces up to the last batch
		// that lies wholly before the damaged stripe, then the error.
		unitPieces := func(backend storage.Backend, share bool) (enc [][]byte, files int, end error, svc *dpp.Service) {
			svc, err := dpp.New(dpp.Config{Backend: backend, Catalog: env.catalog})
			if err != nil {
				t.Fatal(err)
			}
			u, err := svc.OpenUnits(context.Background(), dpp.Spec{Spec: spec, ShareScans: share}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer u.Close()
			for {
				p, err := u.NextPiece(context.Background())
				if err != nil {
					return enc, files, err, svc
				}
				if p.Batch != nil {
					enc = append(enc, encodeBatch(t, p.Batch))
					continue
				}
				rows := p.Tail
				if p.Head != nil {
					rows = p.Head
				} else {
					files++
				}
				var buf []byte
				for _, s := range rows.Samples() {
					buf = s.AppendTo(buf)
				}
				enc = append(enc, buf)
			}
		}
		wantPieces, _, end, svc := unitPieces(env.store, false)
		svc.Close()
		if end != io.EOF {
			t.Fatal(end)
		}
		unitPrefix := badFile*(rowsPerFile/spec.BatchSize+1) + badStripe*stripeRows/spec.BatchSize
		for _, share := range []bool{false, true} {
			what := fmt.Sprintf("batch %d, unit session, share=%v", spec.BatchSize, share)
			got, closed, gotErr, svc := unitPieces(damaged, share)
			if gotErr == io.EOF || gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s: ended with %v, want %q", what, gotErr, wantErr)
			}
			if len(got) != unitPrefix || closed != badFile {
				t.Fatalf("%s: %d pieces and %d closed files before the error, want %d and %d", what, len(got), closed, unitPrefix, badFile)
			}
			for i := range got {
				if !bytes.Equal(got[i], wantPieces[i]) {
					t.Fatalf("%s: piece %d differs from the undamaged table's", what, i)
				}
			}
			uncached(what, []*dpp.Service{svc})
			svc.Close()
		}
	}
}
