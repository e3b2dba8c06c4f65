package storage_test

import (
	"fmt"
	"log"

	"repro/internal/lakefs"
	"repro/internal/storage"
)

// ExampleBackend shows the read surface every reader worker and session
// shares — a file's size, then range reads — so code written against
// storage.Backend runs unchanged over the in-memory lakefs store or a test
// fake.
func ExampleBackend() {
	store := lakefs.NewStore()
	if err := store.Put("tbl/hour=0/part-00000.dwrf", []byte("stripe-bytes")); err != nil {
		log.Fatal(err)
	}

	var backend storage.Backend = store

	size, err := backend.Size("tbl/hour=0/part-00000.dwrf")
	if err != nil {
		log.Fatal(err)
	}
	head, err := backend.ReadRange("tbl/hour=0/part-00000.dwrf", 0, 6)
	if err != nil {
		log.Fatal(err)
	}
	tail, err := backend.ReadRange("tbl/hour=0/part-00000.dwrf", size-5, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("size: %d\n", size)
	fmt.Printf("range: %s\n", head)
	fmt.Printf("tail: %s\n", tail)
	// Output:
	// size: 12
	// range: stripe
	// tail: bytes
}
