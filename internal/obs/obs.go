// Package obs is the service's observability sidecar: a private HTTP
// listener exposing Prometheus-text /metrics, pprof, /healthz, /statsz,
// and the access log, fed by lock-free registries so scraping never
// perturbs the serving path.
//
// The package deliberately sits above the serving stack — obs imports
// dpp, dppnet, and storage to read their stats snapshots; nothing in the
// serving stack imports obs. The one integration point running on a hot
// path is the access log, which dppnet reaches through its OnSession
// callback hook (wired by SessionHook), and AccessLog.Record is a
// wait-free ring-buffer store sized for that position.
//
// A process wires it up once at startup:
//
//	reg := obs.NewRegistry()
//	alog := obs.NewAccessLog(4096)
//	obs.RegisterProcess(reg)
//	obs.RegisterService(reg, obs.Labels{"shard": "0"}, svc)
//	obs.RegisterNetServer(reg, obs.Labels{"shard": "0"}, netSrv)
//	obs.RegisterAccessLog(reg, alog)
//	netSrv.OnSession = obs.SessionHook(alog)
//	side := obs.NewServer(obs.Config{Registry: reg, AccessLog: alog, Statsz: statszFn})
//	go side.Serve(ln)
//	...
//	side.Shutdown(ctx) // graceful: drains in-flight scrapes
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// Config assembles a sidecar Server. Registry is required; AccessLog and
// Statsz are optional (their endpoints 404 / return empty when absent).
type Config struct {
	// Registry backs /metrics.
	Registry *Registry
	// AccessLog backs /accesslog; nil disables the endpoint.
	AccessLog *AccessLog
	// Statsz, when non-nil, is called per /statsz request and its result
	// JSON-encoded — the process's free-form stats document (the HTTP
	// form of dppnet's statsz handshake).
	Statsz func() any
	// Drain, when non-nil, enables POST /drainz: the operator's HTTP
	// lever for graceful drain, equivalent to SIGTERM. The callback must
	// be idempotent (dppnet.Server.Drain is).
	Drain func()
}

// Server is the observability sidecar: one private HTTP listener serving
// /metrics (Prometheus text), /debug/pprof/*, /healthz, /statsz, and
// /accesslog. It is not the data plane — bind it to a loopback or
// operator-only address.
type Server struct {
	cfg   Config
	srv   *http.Server
	start time.Time
}

// NewServer builds a sidecar over cfg. Call Serve to start it, Shutdown to
// stop it.
func NewServer(cfg Config) *Server {
	s := &Server{cfg: cfg, start: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	if cfg.AccessLog != nil {
		mux.HandleFunc("/accesslog", s.handleAccessLog)
	}
	if cfg.Drain != nil {
		mux.HandleFunc("/drainz", s.handleDrainz)
	}
	// pprof on the explicit mux, not http.DefaultServeMux: the sidecar
	// must work without global handler registration leaking into other
	// servers in the process.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	return s
}

// Serve serves HTTP on ln until Shutdown (which makes Serve return nil)
// or a listener failure.
func (s *Server) Serve(ln net.Listener) error {
	err := s.srv.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown gracefully stops the sidecar: the listener closes, in-flight
// scrapes drain (bounded by ctx), and Serve returns nil. Safe to call
// more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.srv.Shutdown(ctx)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.cfg.Registry.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"uptime_seconds\":%.3f}\n", time.Since(s.start).Seconds())
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	var doc any
	if s.cfg.Statsz != nil {
		doc = s.cfg.Statsz()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleDrainz triggers graceful drain. POST-only: drain is a state
// change, and a stray GET from a dashboard must not drain a server.
func (s *Server) handleDrainz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	s.cfg.Drain()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"draining"}`)
}

// handleAccessLog dumps the ring oldest-first as a JSON array; ?n=K
// keeps only the newest K events.
func (s *Server) handleAccessLog(w http.ResponseWriter, r *http.Request) {
	events := s.cfg.AccessLog.Snapshot()
	if q := r.URL.Query().Get("n"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		if n < len(events) {
			events = events[len(events)-n:]
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(events); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
