package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"
)

// httpMeter is the counting and timing RoundTripper the traced run
// installs on grid.Worker.Client. It sees every request the worker makes
// (/task polls, /heartbeat renewals, /result posts and their retries) and
// pairs a claimed task with its accepted result by lease id.
type httpMeter struct {
	base http.RoundTripper

	mu         sync.Mutex
	requests   int
	taskPolls  int // GET /task requests
	tasks      int // GET /task answered 200 with a task
	emptyPolls int // GET /task answered 204
	heartbeats int
	retries    int // POST /result requests repeating an already-posted lease
	failed     int // transport errors and unexpected statuses
	taskMs     []float64
	resultMs   []float64
	turnaround []float64 // ms from GET /task returning a task to POST /result accepted
	claimedAt  map[int64]time.Time
	posted     map[int64]bool
}

func newHTTPMeter(base http.RoundTripper) *httpMeter {
	return &httpMeter{base: base, claimedAt: make(map[int64]time.Time), posted: make(map[int64]bool)}
}

// leaseOf extracts the Lease field of a task or result body (0 when the
// body does not parse).
func leaseOf(b []byte) int64 {
	var v struct{ Lease int64 }
	_ = json.Unmarshal(b, &v)
	return v.Lease
}

// RoundTrip implements http.RoundTripper.
func (m *httpMeter) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	var lease int64
	if path == "/result" && req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			b, _ := io.ReadAll(body) // an in-memory copy of the request body
			body.Close()
			lease = leaseOf(b)
		}
	}
	start := time.Now()
	resp, err := m.base.RoundTrip(req)
	if err == nil && path == "/task" && resp.StatusCode == http.StatusOK {
		// Read the task so its lease can be paired with the result; the
		// worker gets an identical body back.
		b, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(b))
		if rerr == nil {
			lease = leaseOf(b)
		}
	}
	now := time.Now()
	ms := float64(now.Sub(start)) / float64(time.Millisecond)

	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests++
	if path == "/task" {
		m.taskPolls++
	}
	if err != nil {
		if req.Context().Err() == nil {
			// Not the worker shutting down at the end of the sweep.
			m.failed++
		}
		return resp, err
	}
	switch {
	case path == "/task" && resp.StatusCode == http.StatusOK:
		m.tasks++
		m.taskMs = append(m.taskMs, ms)
		m.claimedAt[lease] = now
	case path == "/task" && (resp.StatusCode == http.StatusNoContent || resp.StatusCode == http.StatusGone):
		if resp.StatusCode == http.StatusNoContent {
			m.emptyPolls++
		}
	case path == "/heartbeat":
		m.heartbeats++
		if resp.StatusCode != http.StatusNoContent {
			m.failed++
		}
	case path == "/result":
		if m.posted[lease] {
			m.retries++
		}
		m.posted[lease] = true
		if resp.StatusCode != http.StatusNoContent {
			m.failed++
			break
		}
		m.resultMs = append(m.resultMs, ms)
		if at, ok := m.claimedAt[lease]; ok {
			m.turnaround = append(m.turnaround, float64(now.Sub(at))/float64(time.Millisecond))
			delete(m.claimedAt, lease)
		}
	default:
		m.failed++
	}
	return resp, nil
}

// statusWriter remembers the status a handler answered with.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// serverMeter wraps the coordinator's handler in the traced run: it
// records the server side of a claim (GET /task answered with a task,
// i.e. Session.TryClaim plus the JSON encode) as grid.next_wait and of a
// delivery (POST /result, i.e. the JSON decode plus Session.Complete) as
// grid.complete — the remote counterparts of the loopback pool's
// NextWait and Complete calls.
type serverMeter struct {
	h      http.Handler
	parent int64

	mu   sync.Mutex
	lane *Lane
}

func (s *serverMeter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	s.h.ServeHTTP(sw, r)
	name := ""
	switch {
	case r.URL.Path == "/task" && sw.status == http.StatusOK:
		name = "grid.next_wait"
	case r.URL.Path == "/result":
		name = "grid.complete"
	default:
		return
	}
	s.mu.Lock()
	o := s.lane.Begin(name, s.parent, -1)
	o.start = start.Sub(s.lane.rec.epoch)
	s.lane.End(o)
	s.mu.Unlock()
}
