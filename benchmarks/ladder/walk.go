package main

import (
	"bytes"
	"context"
	"runtime"
	"time"

	"repro/internal/datagen"
	"repro/internal/dwrf"
	"repro/internal/etl"
	"repro/internal/reader"
	"repro/internal/tensor"
)

// walker times one layer call at a time on a single goroutine: a span
// around the call, and the process's allocation counters read outside
// it. The walk is the only place allocations can be pinned on a layer —
// in the concurrent workload runs they are only a process total.
type walker struct {
	tk     *track
	allocs map[string]*allocDelta
}

type allocDelta struct{ objects, bytes uint64 }

func (w *walker) call(name string, fn func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := w.tk.begin(name)
	err := fn()
	w.tk.end(id)
	runtime.ReadMemStats(&m1)
	a := w.allocs[name]
	if a == nil {
		a = &allocDelta{}
		w.allocs[name] = a
	}
	a.objects += m1.Mallocs - m0.Mallocs
	a.bytes += m1.TotalAlloc - m0.TotalAlloc
	return err
}

// layerWalk drives the workload's own files and spec through every
// layer's public entry point, one call at a time: Get, dwrf decode,
// FillFile, ProduceBatch, Dedup/ToKJT, Encode, DecodeBatch, then the
// write side (Join, ClusterBySession, FileWriter), and finally one
// serial Run whose wall time the walked stages are checked against.
func layerWalk(ctx context.Context, fx *fixture, tr *Trace) (map[string]float64, error) {
	w := &walker{tk: tr.newTrack(0), allocs: map[string]*allocDelta{}}
	r, err := reader.NewReader(fx.store, fx.spec)
	if err != nil {
		return nil, err
	}
	var (
		getBytes, getOps    int64
		valuesIn, valuesOut int64
		all, pending        []datagen.Sample
		keys                []string
		dense               int
		buf                 bytes.Buffer
		deduper             = tensor.NewDeduper()
	)
	batch := func(rows []datagen.Sample) error {
		var b *reader.Batch
		if err := w.call("reader.produce", func() (err error) {
			b, err = r.ProduceBatch(rows, keys, dense)
			return err
		}); err != nil {
			return err
		}
		for _, ik := range b.IKJTs {
			var kjt *tensor.KJT
			w.call("tensor.expand", func() error { kjt = ik.ToKJT(); return nil })
			tensors := make([]tensor.Jagged, kjt.NumKeys())
			for i := range tensors {
				tensors[i] = kjt.FeatureAt(i)
				valuesIn += int64(tensors[i].NumValues())
			}
			var again *tensor.IKJT
			if err := w.call("tensor.dedup", func() (err error) {
				again, err = deduper.Dedup(ik.Keys(), tensors)
				return err
			}); err != nil {
				return err
			}
			for i := 0; i < again.NumKeys(); i++ {
				valuesOut += int64(again.DedupedAt(i).NumValues())
			}
		}
		buf.Reset()
		if err := w.call("reader.encode", func() error { return b.Encode(&buf) }); err != nil {
			return err
		}
		return w.call("reader.decode", func() error {
			_, err := reader.DecodeBatch(bytes.NewReader(buf.Bytes()))
			return err
		})
	}

	for _, f := range fx.files {
		fid := w.tk.begin("walk.file")
		var data []byte
		s0 := fx.store.Stats()
		if err := w.call("storage.get", func() (err error) { data, err = fx.store.Get(f); return err }); err != nil {
			return nil, err
		}
		s1 := fx.store.Stats()
		getBytes += s1.ReadBytes - s0.ReadBytes
		getOps += s1.ReadOps - s0.ReadOps
		if err := w.call("dwrf.decode", func() error {
			fr, err := dwrf.OpenReader(data)
			if err != nil {
				return err
			}
			_, err = fr.ReadAllContext(ctx)
			return err
		}); err != nil {
			return nil, err
		}
		var rows []datagen.Sample
		if err := w.call("reader.fill", func() (err error) {
			rows, keys, dense, err = r.FillFile(ctx, f)
			return err
		}); err != nil {
			return nil, err
		}
		all = append(all, rows...)
		pending = append(pending, rows...)
		for len(pending) >= batchSize {
			if err := batch(pending[:batchSize]); err != nil {
				return nil, err
			}
			pending = pending[batchSize:]
		}
		w.tk.end(fid)
	}
	if len(pending) > 0 {
		if err := batch(pending); err != nil {
			return nil, err
		}
	}
	stats := r.Stats()

	// The write side, over the same rows in the chunks live_tail lands.
	var landRows, rawBytes, fileBytes int64
	for off := 0; off+chunkRows <= len(all); off += chunkRows {
		feats, events := etl.SplitLogs(all[off : off+chunkRows])
		var joined, clustered []datagen.Sample
		w.call("etl.join", func() error { joined = etl.Join(feats, events); return nil })
		w.call("etl.cluster", func() error { clustered = etl.ClusterBySession(joined); return nil })
		if err := w.call("dwrf.encode", func() error {
			fw, err := dwrf.NewFileWriter(fx.schema, dwrf.WriterOptions{StripeRows: stripeRows})
			if err != nil {
				return err
			}
			if err := fw.WriteRows(clustered); err != nil {
				return err
			}
			_, fs, err := fw.Finish()
			rawBytes += fs.RawBytes
			fileBytes += fs.CompressedBytes
			return err
		}); err != nil {
			return nil, err
		}
		landRows += int64(len(clustered))
	}

	// The serial baseline the stages must add up to.
	serial, err := reader.NewReader(fx.store, fx.spec)
	if err != nil {
		return nil, err
	}
	if err := w.call("reader.run", func() error {
		return serial.Run(ctx, fx.files, func(*reader.Batch) error { return nil })
	}); err != nil {
		return nil, err
	}

	tot := totalsByName(tr.snapshot()) // walk span names are the walk's alone
	rows := float64(len(all))
	ns := func(name string, per float64) float64 { return float64(tot[name].Total) / per }
	allocs := func(name string, per float64) (objects, bytes float64) {
		a := w.allocs[name]
		return float64(a.objects) / per, float64(a.bytes) / per
	}
	get, decode, fill := ns("storage.get", rows), ns("dwrf.decode", rows), ns("reader.fill", rows)
	produce := ns("reader.produce", rows)
	run := float64(tot["reader.run"].Total)
	sim := fill - get - decode
	decObjs, decBytes := allocs("dwrf.decode", rows)
	encObjs, _ := allocs("dwrf.encode", float64(landRows))
	prodObjs, _ := allocs("reader.produce", rows)

	out := map[string]float64{
		"storage.get_ns_per_row":          get,
		"storage.read_bytes_per_row":      float64(getBytes) / rows,
		"storage.read_ops_per_krow":       float64(getOps) / rows * 1000,
		"dwrf.decode_ns_per_row":          decode,
		"dwrf.decode_allocs_per_row":      decObjs,
		"dwrf.decode_alloc_bytes_per_row": decBytes,
		"dwrf.encode_ns_per_row":          ns("dwrf.encode", float64(landRows)),
		"dwrf.encode_allocs_per_row":      encObjs,
		"dwrf.compression_ratio":          float64(rawBytes) / float64(fileBytes),
		"reader.fill_ns_per_row":          fill,
		"reader.fetch_sim_ns_per_row":     sim,
		"reader.fetch_sim_share":          sim / fill,
		"reader.produce_ns_per_row":       produce,
		"reader.produce_allocs_per_row":   prodObjs,
		"reader.convert_ns_per_row":       float64(stats.ConvertTime) / rows,
		"reader.process_ns_per_row":       float64(stats.ProcessTime) / rows,
		"reader.convert_values_per_row":   float64(stats.ConvertValues) / rows,
		"reader.process_ops_per_row":      float64(stats.ProcessOps) / rows,
		"reader.encode_ns_per_row":        ns("reader.encode", rows),
		"reader.decode_ns_per_row":        ns("reader.decode", rows),
		"reader.serial_rows_per_s":        rows / (run / float64(time.Second)),
		"reader.unattributed_share":       1 - (fill+produce)*rows/run,
		"tensor.dedup_ns_per_row":         ns("tensor.dedup", rows),
		"tensor.expand_ns_per_row":        ns("tensor.expand", rows),
		"etl.join_ns_per_row":             ns("etl.join", float64(landRows)),
		"etl.cluster_ns_per_row":          ns("etl.cluster", float64(landRows)),
	}
	if valuesOut > 0 {
		out["tensor.dedup_factor"] = float64(valuesIn) / float64(valuesOut)
	}
	return out, nil
}
