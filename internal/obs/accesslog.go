package obs

import (
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// AccessEvent is one access-log record: a session lifecycle transition
// as the serving process saw it. It mirrors dppnet.SessionEvent plus a
// timestamp (obs owns the type so the serving stack never imports obs).
type AccessEvent struct {
	// Time is when the event was recorded.
	Time time.Time `json:"time"`
	// Kind is "open", "close", or "error".
	Kind string `json:"kind"`
	// ID ties a close to its open; 0 for pre-admission errors.
	ID int64 `json:"id,omitempty"`
	// Peer is the client's remote address.
	Peer string `json:"peer,omitempty"`
	// Table is the session's table.
	Table string `json:"table,omitempty"`
	// FileUnits marks a fleet shard's file-unit session.
	FileUnits bool `json:"file_units,omitempty"`
	// ShareScans marks a ScanCache-sharing session.
	ShareScans bool `json:"share_scans,omitempty"`
	// Batches and Bytes are the close event's shipped totals: payload
	// frames — a file-unit session's batch frames and closing records
	// alike — and their bytes.
	Batches int64 `json:"batches,omitempty"`
	Bytes   int64 `json:"bytes,omitempty"`
	// Duration is the close event's session lifetime.
	Duration time.Duration `json:"duration_ns,omitempty"`
	// Detail is the outcome or error text.
	Detail string `json:"detail,omitempty"`
	// Resumed marks an open that continued an earlier stream; Offset is
	// the frame index the reconnecting client asked to continue from.
	Resumed bool  `json:"resumed,omitempty"`
	Offset  int64 `json:"offset,omitempty"`
	// Tenant is the authenticated tenant behind the event; empty when
	// the server runs without a front door.
	Tenant string `json:"tenant,omitempty"`
}

// AccessLog is a fixed-capacity, wait-free ring of the newest
// AccessEvents. Record claims a slot with one atomic add and publishes
// the event with one atomic pointer store — no locks, no waiting on
// readers — so it is safe to call from the serving path (it is the
// target of dppnet's OnSession hook; see SessionHook). Once the ring
// wraps, the oldest events are overwritten; the per-kind counters keep
// counting everything ever recorded, so /metrics sees totals while
// /accesslog sees the recent tail.
type AccessLog struct {
	slots  []atomic.Pointer[AccessEvent]
	cursor atomic.Uint64

	opens, closes, errors, other metrics.Counter
}

// NewAccessLog returns a ring holding the newest capacity events
// (minimum 1).
func NewAccessLog(capacity int) *AccessLog {
	if capacity < 1 {
		capacity = 1
	}
	return &AccessLog{slots: make([]atomic.Pointer[AccessEvent], capacity)}
}

// Record publishes one event, stamping Time if unset. Wait-free; safe
// from any goroutine.
func (l *AccessLog) Record(ev AccessEvent) {
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	switch ev.Kind {
	case "open":
		l.opens.Inc()
	case "close":
		l.closes.Inc()
	case "error":
		l.errors.Inc()
	default:
		l.other.Inc()
	}
	seq := l.cursor.Add(1) - 1
	l.slots[seq%uint64(len(l.slots))].Store(&ev)
}

// Snapshot returns the resident events oldest-first. Concurrent with
// writers it is best-effort: an event being overwritten during the read
// may appear in its new form or its old, and a claimed-but-unpublished
// slot is skipped — but every returned event is complete (the pointer
// store publishes the whole record at once).
func (l *AccessLog) Snapshot() []AccessEvent {
	n := uint64(len(l.slots))
	c := l.cursor.Load()
	start := uint64(0)
	count := c
	if c > n {
		start = c % n
		count = n
	}
	out := make([]AccessEvent, 0, count)
	for i := uint64(0); i < count; i++ {
		if ev := l.slots[(start+i)%n].Load(); ev != nil {
			out = append(out, *ev)
		}
	}
	return out
}

// AccessLogStats is the log's lifetime accounting (not capped by ring
// capacity).
type AccessLogStats struct {
	// Opens, Closes, and Errors count recorded events by kind; Other
	// counts unrecognized kinds.
	Opens, Closes, Errors, Other int64
}

// Stats returns the lifetime event counts. Lock-free.
func (l *AccessLog) Stats() AccessLogStats {
	return AccessLogStats{
		Opens:  l.opens.Value(),
		Closes: l.closes.Value(),
		Errors: l.errors.Value(),
		Other:  l.other.Value(),
	}
}
