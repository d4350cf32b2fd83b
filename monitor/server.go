package monitor

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"
)

// Server exposes a fixed set of monitors over HTTP:
//
//	GET /metrics       Prometheus text exposition of every monitor
//	GET /metrics.json  JSON array of snapshots
//	GET /trace         JSON array of trace events (?site=s2 filters to
//	                   one site, ?n=100 keeps the most recent n per
//	                   monitor)
//	GET /              plain-text index
//
// The listener binds in NewServer, so an addr ending in ":0" gets its
// ephemeral port immediately (Addr returns it). Close stops the server;
// it does not touch the monitors.
type Server struct {
	mons []*Monitor
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// NewServer binds addr (host:port; an empty host binds all interfaces,
// port 0 picks an ephemeral one) and serves the given monitors.
func NewServer(addr string, mons ...*Monitor) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("monitor: listen %s: %w", addr, err)
	}
	s := &Server{mons: append([]*Monitor(nil), mons...), ln: ln, done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics.json", s.handleJSON)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/", s.handleIndex)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return s, nil
}

// Addr returns the server's bound address (with the resolved port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the HTTP server and joins its goroutine.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}

func (s *Server) snapshots() []Snapshot {
	snaps := make([]Snapshot, 0, len(s.mons))
	for _, m := range s.mons {
		snaps = append(snaps, m.Snapshot())
	}
	return snaps
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WriteExposition(w, s.snapshots()...)
}

func (s *Server) handleJSON(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.snapshots())
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	siteFilter := r.URL.Query().Get("site")
	max := 0
	if v := r.URL.Query().Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		max = n
	}
	events := make([]Event, 0, 64)
	for _, m := range s.mons {
		if siteFilter != "" && m.Site().String() != siteFilter {
			continue
		}
		events = append(events, m.Events(max)...)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(events)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "causalgc monitor: %d site(s)\n/metrics\n/metrics.json\n/trace\n", len(s.mons))
}
