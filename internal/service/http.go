package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/muontrap"
)

// The HTTP surface. Routes (all JSON; full reference in docs/API.md):
//
//	POST   /v1/jobs              submit a sweep            → 202 Job (200 if served from the result store)
//	GET    /v1/jobs              list jobs                 → 200 {"jobs": [Job]}
//	GET    /v1/jobs/{id}         job status                → 200 Job
//	GET    /v1/jobs/{id}/stream  progress over SSE         (resumable via Last-Event-ID)
//	GET    /v1/jobs/{id}/result  completed SweepResult     → 200 | 409 while not done
//	DELETE /v1/jobs/{id}         cancel                    → 202 Job
//	POST   /v1/jobs/{id}/resume  re-queue with resume      → 202 Job
//	GET    /v1/results/{key}     SweepResult by cache key  → 200 | 404
//	GET    /v1/catalog           workload/scheme/figure/attack registries → 200
//	GET    /v1/healthz           liveness + readiness      → 200 (never requires auth)
//
// With tenants configured, every route except /v1/healthz requires an
// API key ("Authorization: Bearer <key>" or "X-API-Key: <key>"; 401
// otherwise). Job listings and reads are visible across tenants — the
// daemon serves one shared, content-keyed experiment corpus — but
// cancel and resume act only on the caller's own jobs (403 otherwise).
// Shed submissions answer 429 (over the tenant's queued quota) or 503
// (over the daemon's queue bound), both with a Retry-After hint.

// apiError is the JSON error envelope. Code is machine-readable and maps
// 1:1 onto the muontrap.ErrUnknown* sentinels (see errorCode); the
// client package performs the reverse mapping so errors.Is works across
// the wire.
type apiError struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

// errorCode maps an error to its wire code and HTTP status.
func errorCode(err error) (string, int) {
	switch {
	case errors.Is(err, muontrap.ErrUnknownWorkload):
		return "unknown_workload", http.StatusBadRequest
	case errors.Is(err, muontrap.ErrUnknownScheme):
		return "unknown_scheme", http.StatusBadRequest
	case errors.Is(err, muontrap.ErrUnknownFigure):
		return "unknown_figure", http.StatusBadRequest
	case errors.Is(err, muontrap.ErrUnknownAttack):
		return "unknown_attack", http.StatusBadRequest
	case errors.Is(err, muontrap.ErrUnknownJob):
		return "unknown_job", http.StatusNotFound
	}
	var missing *NotFoundError
	if errors.As(err, &missing) {
		return missing.Code, http.StatusNotFound
	}
	var conflict *conflictError
	if errors.As(err, &conflict) {
		return "conflict", http.StatusConflict
	}
	var forbidden *forbiddenError
	if errors.As(err, &forbidden) {
		return "forbidden", http.StatusForbidden
	}
	var shed *shedError
	if errors.As(err, &shed) {
		if shed.status == http.StatusTooManyRequests {
			return "over_quota", shed.status
		}
		return "overloaded", shed.status
	}
	return "bad_request", http.StatusBadRequest
}

// NotFoundError is a request naming something that does not exist (HTTP
// 404) under a wire code of its own — "unknown_result" here,
// "unknown_worker" on the fleet control plane.
type NotFoundError struct{ Code, Msg string }

func (e *NotFoundError) Error() string { return e.Msg }

// maxBodyBytes bounds every request body the plane decodes.
const maxBodyBytes = 1 << 20

// Endpoint adapts fn to a handler that speaks the plane's wire
// conventions, for the routes a host process mounts beside /v1 (the
// fleet control plane and the coordinator's healthz): fn gets the
// request body, read under the same bound as POST /v1/jobs; an error is
// answered with the JSON error envelope (see errorCode), a nil value
// with 204, anything else as 200 + JSON.
func Endpoint(fn func(body []byte) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			writeError(w, err)
			return
		}
		switch v, err := fn(body); {
		case err != nil:
			writeError(w, err)
		case v == nil:
			w.WriteHeader(http.StatusNoContent)
		default:
			writeJSON(w, http.StatusOK, v)
		}
	}
}

// ServeHTTP makes the Server mountable directly into any http.Server.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// routes wires the method-qualified route table. Everything except the
// health probe sits behind tenant auth (a no-op wrapper on an open
// daemon).
func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.auth(s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", s.auth(s.handleList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.auth(s.handleStatus))
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.auth(s.handleStream))
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.auth(s.handleResult))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.auth(s.handleCancel))
	mux.HandleFunc("POST /v1/jobs/{id}/resume", s.auth(s.handleResume))
	mux.HandleFunc("GET /v1/results/{key}", s.auth(s.handleResultByKey))
	mux.HandleFunc("GET /v1/catalog", s.auth(s.handleCatalog))
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	if s.cfg.Metrics != nil {
		// Like healthz, the scrape endpoint is an operational probe:
		// never authenticated, and it names no tenant data beyond the
		// tenant label on latency series.
		mux.Handle("GET /metrics", s.cfg.Metrics)
	}
	s.mux = mux
}

// tenantCtxKey carries the authenticated tenant through the request
// context.
type tenantCtxKey struct{}

// requestKey extracts the presented API key: "Authorization: Bearer
// <key>" preferred, "X-API-Key: <key>" for clients that cannot set
// Authorization.
func requestKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		const prefix = "Bearer "
		if len(h) > len(prefix) && strings.EqualFold(h[:len(prefix)], prefix) {
			return strings.TrimSpace(h[len(prefix):])
		}
		return "" // an Authorization header in any other scheme is not a key
	}
	return r.Header.Get("X-API-Key")
}

// auth gates a handler behind tenant authentication. The table is
// loaded per request (one atomic load) rather than captured at route
// time, so a SIGHUP tenant reload takes effect on the very next
// request. On an open daemon (nil table) the request passes through —
// the historical no-auth behavior.
func (s *Server) auth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tbl := s.tenants.Load()
		if tbl == nil {
			h(w, r)
			return
		}
		tn := tbl.authenticate(requestKey(r))
		if tn == nil {
			writeJSON(w, http.StatusUnauthorized, apiError{
				Code:  "unauthorized",
				Error: "missing or unknown API key (send \"Authorization: Bearer <key>\" or \"X-API-Key: <key>\")",
			})
			return
		}
		h(w, r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, tn)))
	}
}

// requestTenant returns the authenticated tenant (nil on an open
// daemon).
func requestTenant(r *http.Request) *tenant {
	tn, _ := r.Context().Value(tenantCtxKey{}).(*tenant)
	return tn
}

// authorizeJob enforces cancel/resume ownership: with tenants
// configured, a job may only be acted on by the tenant that submitted
// it.
func (s *Server) authorizeJob(r *http.Request, id string) error {
	tbl := s.tenants.Load()
	if tbl == nil {
		return nil
	}
	j, err := s.lookup(id)
	if err != nil {
		return err
	}
	snap := j.snapshot()
	if !tbl.canCancel(requestTenant(r), snap.Tenant) {
		return &forbiddenError{fmt.Sprintf("job %s belongs to tenant %s", id, snap.Tenant)}
	}
	return nil
}

// writeJSON emits one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	_ = enc.Encode(v)
}

// writeError emits the JSON error envelope for err. Shed errors carry
// the Retry-After hint the admission controller attached.
func writeError(w http.ResponseWriter, err error) {
	var shed *shedError
	if errors.As(err, &shed) {
		secs := int(shed.retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	code, status := errorCode(err)
	writeJSON(w, status, apiError{Code: code, Error: err.Error()})
}

// submitRequest is the POST /v1/jobs body.
type submitRequest struct {
	Sweep muontrap.Sweep `json:"sweep"`
	// Priority is the scheduling class: "interactive", "bulk", or empty
	// for the bulk default.
	Priority string `json:"priority,omitempty"`
	// Resume starts the job with checkpoint-resume enabled: if a mid-run
	// checkpoint matching a cell's exact identity is reachable through
	// the daemon's snapshot store, the run continues from it instead of
	// starting cold. The fleet coordinator sets this when re-dispatching
	// an interrupted cell to a new worker; with no matching checkpoint it
	// is a silent cold start.
	Resume bool `json:"resume,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, fmt.Errorf("decoding submit request: %w", err))
		return
	}
	rec, cached, err := s.submit(req.Sweep, muontrap.Priority(req.Priority), requestTenant(r), req.Resume)
	if err != nil {
		writeError(w, err)
		return
	}
	status := http.StatusAccepted
	if cached {
		// Served whole from the content-keyed result store: the job was
		// born done, nothing was queued.
		status = http.StatusOK
	}
	writeJSON(w, status, rec)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	jobs := make([]muontrap.Job, 0, len(ids))
	for _, id := range ids {
		if j, err := s.lookup(id); err == nil {
			jobs = append(jobs, j.snapshot())
		}
	}
	writeJSON(w, http.StatusOK, map[string][]muontrap.Job{"jobs": jobs})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	snap := j.snapshot()
	if snap.State != muontrap.JobDone {
		writeError(w, &conflictError{fmt.Sprintf("job %s is %s; the result exists only once it is done", snap.ID, snap.State)})
		return
	}
	res, ok := s.doneResult(j)
	if !ok {
		writeError(w, &conflictError{fmt.Sprintf("job result for cache key %s is no longer stored", snap.CacheKey)})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.authorizeJob(r, id); err != nil {
		writeError(w, err)
		return
	}
	rec, err := s.cancelJob(id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, rec)
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.authorizeJob(r, id); err != nil {
		writeError(w, err)
		return
	}
	rec, err := s.ResumeJob(id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, rec)
}

func (s *Server) handleResultByKey(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if res, ok := s.loadResult(key); ok {
		writeJSON(w, http.StatusOK, res)
		return
	}
	// Not on disk — maybe completed in-memory on an ephemeral server.
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	for _, id := range ids {
		j, err := s.lookup(id)
		if err != nil {
			continue
		}
		j.mu.Lock()
		match := j.rec.CacheKey == key && j.rec.State == muontrap.JobDone && j.result != nil
		res := j.result
		j.mu.Unlock()
		if match {
			writeJSON(w, http.StatusOK, res)
			return
		}
	}
	writeError(w, &NotFoundError{"unknown_result", fmt.Sprintf("no stored result for cache key %q", key)})
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, muontrap.Catalog{
		Workloads: muontrap.Workloads(),
		Schemes:   muontrap.Schemes(),
		SchemeDoc: muontrap.SchemeDescriptions(),
		Figures:   muontrap.FigureIDs(),
		Attacks:   muontrap.AttackNames(),
	})
}

// healthResponse is the /v1/healthz payload: liveness plus the
// scheduler's readiness counters (embedded flat, so the historical
// "jobs" field keeps its place).
type healthResponse struct {
	Status string `json:"status"`
	Stats
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{Status: "ok", Stats: s.Stats()})
}

// handleStream serves a job's life over Server-Sent Events:
//
//	event: job        one snapshot, immediately on connect
//	event: progress   one muontrap.Progress per completed cell, with an
//	                  "id:" line carrying the job's monotonic frame id
//	event: <state>    terminal Job snapshot (done/failed/cancelled/interrupted)
//
// Subscribers pull frames from the job's bounded ring at their own
// cursor: attaching replays the retained frames (all of them, for rings
// sized ≥ the matrix), publication never blocks on a slow consumer, and
// a consumer that cannot accept a write within the configured deadline
// is disconnected rather than pinning memory. Reconnecting with
// Last-Event-ID (standard SSE) resumes after the last frame seen; a
// consumer that fell further behind than the ring retains continues
// from the oldest retained frame. When a done job's frames are no
// longer held at all (daemon restarted since, or a born-done cache
// hit), the complete per-cell sequence is synthesized from the stored
// result instead, in declaration order with positional ids — the
// ordering authority is always the declaration-ordered result itself.
//
// A preempted job emits no terminal event: its stream stays open while
// the job waits, re-queued, for a slot, and the resumed attempt's
// frames follow on the same connection. The terminal event always
// reports a genuine end state.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, fmt.Errorf("streaming unsupported by this connection"))
		return
	}
	var cursor uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			cursor = n
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	rc := http.NewResponseController(w)
	write := func(id uint64, name string, data []byte) bool {
		// The per-write deadline is the shed mechanism for dead or
		// too-slow consumers: a blocked write aborts this subscriber
		// (only), and the client's Last-Event-ID makes the cut resumable.
		_ = rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
		var err error
		if id > 0 {
			_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, name, data)
		} else {
			_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data)
		}
		return err == nil
	}

	sub := j.attach()
	s.met.sseAttach()
	defer func() {
		j.detach(sub)
		s.met.sseDetach()
	}()

	if !writeSSE(write, "job", j.snapshot()) {
		return
	}
	for {
		evs, snap := j.eventsSince(cursor)
		if snap.State == muontrap.JobDone && len(evs) == 0 && cursor < uint64(snap.Total) {
			// Done jobs release their frame ring (and born-done cache
			// hits never had one); synthesize the remaining replay from
			// the result, in declaration order with positional ids.
			if res, ok := s.doneResult(j); ok {
				for i, run := range res.Runs {
					id := uint64(i + 1)
					if id <= cursor {
						continue
					}
					data, err := json.Marshal(muontrap.Progress{Done: i + 1, Total: len(res.Runs), Run: run})
					if err == nil {
						evs = append(evs, streamEvent{id: id, name: "progress", data: data})
					}
				}
			}
		}
		for _, ev := range evs {
			if !write(ev.id, ev.name, ev.data) {
				return
			}
			cursor = ev.id
		}
		if snap.State.Terminal() {
			writeSSE(write, string(snap.State), snap)
			flusher.Flush()
			return
		}
		flusher.Flush()
		select {
		case <-sub.wake:
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE emits one id-less SSE frame with a JSON-marshalled payload
// through the deadline-guarded writer.
func writeSSE(write func(uint64, string, []byte) bool, event string, v any) bool {
	data, err := json.Marshal(v)
	if err != nil {
		return false
	}
	return write(0, event, data)
}
