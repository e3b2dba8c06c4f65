package main

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dwrf"
)

// writeFile lands a small partition of schema as one DWRF file in dir,
// and returns its path and the rows written.
func writeFile(t *testing.T, dir, name string, schema *datagen.Schema) (string, []datagen.Sample) {
	t.Helper()
	samples := datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: 4, MeanSamplesPerSession: 3, Seed: 1,
	}).GeneratePartition()
	w, err := dwrf.NewFileWriter(schema, dwrf.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRows(samples); err != nil {
		t.Fatal(err)
	}
	data, _, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, samples
}

// TestReadFilesRefusesMixedSchemas: the stats index every sample's sparse
// features by one key list, so files whose sparse features differ are
// refused, naming both paths, in either order — where a narrower file
// after a wider one used to panic, and a wider one after a narrower one
// reported one feature's stats under another's name.
func TestReadFilesRefusesMixedSchemas(t *testing.T) {
	dir := t.TempDir()
	schema := func(items int) *datagen.Schema {
		return datagen.StandardSchema(datagen.StandardSchemaConfig{
			UserSeq: 1, UserElem: 2, Item: items, Dense: 2, SeqLen: 4, Seed: 1,
		})
	}
	wide, _ := writeFile(t, dir, "wide.dwrf", schema(3))
	narrow, _ := writeFile(t, dir, "narrow.dwrf", schema(1))

	samples, keys, err := readFiles(io.Discard, []string{wide, wide})
	if err != nil {
		t.Fatalf("one schema twice: %v", err)
	}
	if len(keys) != len(schema(3).Sparse) || len(samples) == 0 {
		t.Fatalf("one schema twice: %d keys, %d samples", len(keys), len(samples))
	}
	for _, paths := range [][]string{{wide, narrow}, {narrow, wide}} {
		_, _, err := readFiles(io.Discard, paths)
		if err == nil {
			t.Fatalf("%v: mixed schemas read without an error", paths)
		}
		for _, p := range paths {
			if !strings.Contains(err.Error(), p) {
				t.Errorf("%v: error %q does not name %s", paths, err, p)
			}
		}
	}
}

// TestReadFilesKeepsRowKeys: the rows read back are the rows written, row
// keys included — a stripe holds none, so they come from each file's
// row-key section — and the S measured over them is the source's.
func TestReadFilesKeepsRowKeys(t *testing.T) {
	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 1, UserElem: 2, Item: 2, Dense: 2, SeqLen: 4, Seed: 1,
	})
	path, written := writeFile(t, t.TempDir(), "part.dwrf", schema)
	samples, _, err := readFiles(io.Discard, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(samples, written) {
		t.Fatalf("read %d rows that differ from the %d written", len(samples), len(written))
	}
	if got, want := datagen.MeasuredS(samples), datagen.MeasuredS(written); got != want || want <= 1 {
		t.Fatalf("measured S = %v, the source's %v", got, want)
	}
}

// TestReadFilesNamesARetiredLayout: a file written in a retired layout —
// the varint-ID layout's trailer DWRF, the flate-sparse layout's DWR2 or
// the flate-label-and-dense layout's DWR3 — is refused, and the error
// names the file, the trailer found and the remedy instead of reporting
// rows decoded from misread streams.
func TestReadFilesNamesARetiredLayout(t *testing.T) {
	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 1, UserElem: 2, Item: 2, Dense: 2, SeqLen: 4, Seed: 1,
	})
	for _, trailer := range []string{"DWRF", "DWR2", "DWR3"} {
		path, _ := writeFile(t, t.TempDir(), "old.dwrf", schema)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		copy(data[len(data)-4:], trailer)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err = readFiles(io.Discard, []string{path})
		if err == nil {
			t.Fatalf("a file of the retired layout %s was read", trailer)
		}
		for _, want := range []string{path, `file is in a retired layout (trailer "` + trailer + `"`, "re-land it with this build"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		}
	}
}
