package dpp_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/dpp"
)

// TestPullRacingCloseReturnsErrClosed: Close marks the stream closed and
// waits in teardown for its workers, and the scan settles meanwhile, so a
// concurrent Pull finds both the session context done and out closed. The
// select may take either; whichever it takes, Pull must report ErrClosed
// and leave teardown to Close. A Pull that tore down itself would wait for
// a worker that is released only once Pull returns.
func TestPullRacingCloseReturnsErrClosed(t *testing.T) {
	for i := 0; i < 20; i++ {
		var s dpp.Shell[int]
		s.Pool = func() dpp.SchedulerStats { return dpp.SchedulerStats{} }
		s.Open(context.Background(), dpp.SystemClock{}, 1)
		release := make(chan struct{})
		s.Go(func() { <-release })
		closed := make(chan struct{})
		go func() {
			s.Close()
			close(closed)
		}()
		<-s.Ctx().Done()
		s.Settle(nil)

		pulled := make(chan error, 1)
		go func() {
			_, err := s.Pull(context.Background())
			pulled <- err
		}()
		select {
		case err := <-pulled:
			close(release)
			if !errors.Is(err, dpp.ErrClosed) {
				t.Fatalf("repetition %d: Pull racing Close = %v, want ErrClosed", i, err)
			}
		case <-time.After(5 * time.Second):
			close(release)
			t.Fatalf("repetition %d: Pull did not return while Close was tearing down", i)
		}
		<-closed
	}
}
