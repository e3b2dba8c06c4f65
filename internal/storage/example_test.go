package storage_test

import (
	"fmt"
	"log"

	"repro/internal/lakefs"
	"repro/internal/storage"
)

// ExampleBackend shows the read surface every reader worker and session
// shares: code written against storage.Backend runs unchanged over the
// in-memory lakefs store or a test fake.
func ExampleBackend() {
	store := lakefs.NewStore()
	if err := store.Put("tbl/hour=0/part-00000.dwrf", []byte("stripe-bytes")); err != nil {
		log.Fatal(err)
	}

	var backend storage.Backend = store

	blob, err := backend.Get("tbl/hour=0/part-00000.dwrf")
	if err != nil {
		log.Fatal(err)
	}
	head, err := backend.ReadRange("tbl/hour=0/part-00000.dwrf", 0, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("blob: %s\n", blob)
	fmt.Printf("range: %s\n", head)
	fmt.Printf("files under tbl/: %v\n", backend.List("tbl/"))
	fmt.Printf("exists: %v\n", backend.Exists("tbl/hour=0/part-00000.dwrf"))
	// Output:
	// blob: stripe-bytes
	// range: stripe
	// files under tbl/: [tbl/hour=0/part-00000.dwrf]
	// exists: true
}
