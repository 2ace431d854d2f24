package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/muontrap"
)

// Client drives a muontrapd experiment daemon over HTTP. It is a thin,
// dependency-free mirror of muontrap.Runner: Submit/Stream/Result are
// the primitive verbs, Sweep composes them into the blocking call shape
// Runner.Sweep has. A Client is immutable after New and safe for
// concurrent use.
//
// Against a hardened daemon the client is resilient by construction:
// WithAPIKey authenticates every request, and WithRetries(n) turns shed
// responses (429/503 + Retry-After) and transient transport failures
// into bounded, jittered-backoff retries. Submission is idempotent by
// cache key — an identical resubmission either lands as a fresh job or
// is answered from the daemon's content-keyed result store — so Submit
// is safe to replay even when a transport error hides whether the first
// attempt arrived.
type Client struct {
	base     string
	hc       *http.Client
	progress func(muontrap.Progress)
	apiKey   string
	retries  int
	met      *Metrics // nil without WithMetrics: every record is a no-op
}

// Option configures a Client at construction.
type Option func(*Client)

// WithHTTPClient substitutes the http.Client used for every request
// (default http.DefaultClient). Streaming requests hold their connection
// open for the life of a job, so the client must not enforce an overall
// request timeout; use context deadlines instead.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithProgress streams per-cell completions during Sweep, mirroring
// muontrap.WithProgress: fn is called serially, once per completed cell.
func WithProgress(fn func(muontrap.Progress)) Option {
	return func(c *Client) { c.progress = fn }
}

// WithAPIKey authenticates every request as the tenant owning key
// ("Authorization: Bearer <key>"). Required against a daemon running
// with -tenants; ignored by an open daemon.
func WithAPIKey(key string) Option { return func(c *Client) { c.apiKey = key } }

// WithRetries allows up to n additional attempts per request (default
// 0: fail fast, the historical behavior). Retries apply to shed
// responses (429/503, honoring the daemon's Retry-After hint), to
// transient 5xx, and — for idempotent requests only (GETs, and Submit,
// which is idempotent by cache key) — to transport errors, with
// jittered exponential backoff between attempts. Streams reconnect with
// Last-Event-ID under the same budget, resuming after the last frame
// seen instead of replaying.
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// New builds a client for the daemon at base ("http://host:7077"; any
// trailing slash is trimmed).
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a non-2xx daemon response. Unwrap maps the wire code back
// to the matching muontrap sentinel, so
//
//	errors.Is(err, muontrap.ErrUnknownWorkload)
//
// holds against a remote daemon exactly as it does in-process.
type APIError struct {
	Status  int    // HTTP status code
	Code    string // machine-readable code ("unknown_workload", "over_quota", …)
	Message string // human-readable message from the daemon
	// RetryAfter is the daemon's Retry-After hint on shed (429/503)
	// responses; zero when absent.
	RetryAfter time.Duration
}

// Error renders the daemon's message with its code.
func (e *APIError) Error() string {
	return fmt.Sprintf("muontrapd: %s (%s, HTTP %d)", e.Message, e.Code, e.Status)
}

// Unwrap surfaces the sentinel behind the wire code, if any.
func (e *APIError) Unwrap() error {
	switch e.Code {
	case "unknown_workload":
		return muontrap.ErrUnknownWorkload
	case "unknown_scheme":
		return muontrap.ErrUnknownScheme
	case "unknown_figure":
		return muontrap.ErrUnknownFigure
	case "unknown_attack":
		return muontrap.ErrUnknownAttack
	case "unknown_job":
		return muontrap.ErrUnknownJob
	}
	return nil
}

// retryableStatus reports whether a response status is worth retrying:
// shed responses (429/503) are explicitly retry-later by contract, and
// other 5xx are transient by convention (the daemon itself never 500s;
// proxies and fault injectors do).
func retryableStatus(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// Backoff policy constants: exponential from backoffBase, capped at
// backoffCap, full-jitter (delay drawn from [ceiling/2, ceiling)).
const (
	backoffBase = 100 * time.Millisecond
	backoffCap  = 5 * time.Second
)

// backoffDelay computes the sleep before retry attempt (0-based). A
// positive server Retry-After hint is authoritative and used verbatim —
// the daemon knows its own load better than any client-side guess.
// Otherwise the delay is full-jitter exponential: the ceiling doubles
// per attempt from backoffBase up to backoffCap, and the delay is drawn
// uniformly from [ceiling/2, ceiling) so a shed fleet of clients does
// not return in lockstep. jitter maps a half-ceiling to a random value
// in [0, half); tests pass a deterministic one.
func backoffDelay(attempt int, hint time.Duration, jitter func(time.Duration) time.Duration) time.Duration {
	if hint > 0 {
		return hint
	}
	ceiling := backoffBase * (1 << min(attempt, 10))
	if ceiling > backoffCap {
		ceiling = backoffCap
	}
	return ceiling/2 + jitter(ceiling/2)
}

// sleepFn waits out one backoff delay, honoring context cancellation.
// Var so tests can substitute a fake clock that records delays instead
// of sleeping them.
var sleepFn = func(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// backoff sleeps before retry attempt (0-based), per backoffDelay,
// recording the retry and its delay in the client's metrics. Cancelled
// contexts cut the sleep short.
func (c *Client) backoff(ctx context.Context, attempt int, hint time.Duration) error {
	d := backoffDelay(attempt, hint, rand.N[time.Duration])
	c.met.recordBackoff(d)
	return sleepFn(ctx, d)
}

// retryAfterOf extracts the Retry-After hint from an error, if any.
func retryAfterOf(err error) time.Duration {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.RetryAfter
	}
	return 0
}

// do performs one JSON request/response round trip with the client's
// retry budget. A non-2xx status is decoded into an *APIError; out may
// be nil to discard the body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.doRetry(ctx, method, path, in, out, method == http.MethodGet)
}

// doRetry is do with an explicit idempotency claim: idempotent requests
// may also be replayed after transport errors, where it is unknowable
// whether the daemon acted on the lost attempt.
func (c *Client) doRetry(ctx context.Context, method, path string, in, out any, idempotent bool) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	for attempt := 0; ; attempt++ {
		err := c.once(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		if attempt >= c.retries || ctx.Err() != nil {
			return err
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			if !retryableStatus(apiErr.Status) {
				return err
			}
		} else if !idempotent {
			// Transport error on a non-idempotent request: the daemon may
			// or may not have acted on it. Replaying could double the
			// side effect; surface the ambiguity instead.
			return err
		}
		if err := c.backoff(ctx, attempt, retryAfterOf(err)); err != nil {
			return err
		}
	}
}

// once performs a single attempt.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.authorize(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// authorize attaches the configured API key.
func (c *Client) authorize(req *http.Request) {
	if c.apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.apiKey)
	}
}

// decodeError turns a non-2xx response into an *APIError, preserving the
// raw body when it is not the JSON envelope.
func decodeError(resp *http.Response) error {
	var retryAfter time.Duration
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var e struct {
		Code  string `json:"code"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(b, &e); err != nil || e.Error == "" {
		return &APIError{Status: resp.StatusCode, Code: "http_error", Message: strings.TrimSpace(string(b)), RetryAfter: retryAfter}
	}
	return &APIError{Status: resp.StatusCode, Code: e.Code, Message: e.Error, RetryAfter: retryAfter}
}

// submitRequest is the POST /v1/jobs body.
type submitRequest struct {
	Sweep    muontrap.Sweep `json:"sweep"`
	Priority string         `json:"priority,omitempty"`
	Resume   bool           `json:"resume,omitempty"`
}

// SubmitOption customizes one submission.
type SubmitOption func(*submitRequest)

// WithPriority sets the submission's scheduling class. Interactive jobs
// dispatch ahead of bulk jobs and preempt running bulk sweeps when every
// runner slot is busy; the default (and the empty string) is bulk.
func WithPriority(p muontrap.Priority) SubmitOption {
	return func(r *submitRequest) { r.Priority = string(p) }
}

// WithResume starts the submitted job with checkpoint-resume enabled:
// any cell whose exact identity has a reachable mid-run checkpoint in
// the daemon's snapshot store continues from it instead of starting
// cold. The fleet coordinator submits re-dispatched cells this way so a
// new worker picks up where a dead one left off; with no matching
// checkpoint it is a silent cold start, so the option is always safe.
func WithResume() SubmitOption {
	return func(r *submitRequest) { r.Resume = true }
}

// Submit sends a sweep and returns the accepted job. A daemon holding a
// stored result for this exact matrix (same options, same simulator
// binary) returns the job already done. Submission is idempotent by
// cache key, so with retries configured it is replayed even after
// transport errors: the ambiguous attempt either never landed (the
// replay is the submission) or landed as a job whose identical result
// the replay's job will share.
func (c *Client) Submit(ctx context.Context, sw muontrap.Sweep, opts ...SubmitOption) (muontrap.Job, error) {
	req := submitRequest{Sweep: sw}
	for _, o := range opts {
		o(&req)
	}
	var job muontrap.Job
	err := c.doRetry(ctx, http.MethodPost, "/v1/jobs", req, &job, true)
	return job, err
}

// Job fetches one job's current status.
func (c *Client) Job(ctx context.Context, id string) (muontrap.Job, error) {
	var job muontrap.Job
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &job)
	return job, err
}

// Jobs lists every job the daemon knows, in submission order.
func (c *Client) Jobs(ctx context.Context) ([]muontrap.Job, error) {
	var out struct {
		Jobs []muontrap.Job `json:"jobs"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out.Jobs, err
}

// Cancel aborts a queued or running job. A job still waiting in the
// dispatch queue cancels synchronously; a running job reaches the
// "cancelled" state once in-flight cells have unwound (promptly, but
// not synchronously with this call).
func (c *Client) Cancel(ctx context.Context, id string) (muontrap.Job, error) {
	var job muontrap.Job
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &job)
	return job, err
}

// Resume re-enters an interrupted (or cancelled/failed) job into the
// queue with checkpoint resume enabled: on a daemon configured with a
// checkpoint cadence and cache directory, each unfinished cell restores
// its latest persisted mid-run checkpoint instead of starting cold.
func (c *Client) Resume(ctx context.Context, id string) (muontrap.Job, error) {
	var job muontrap.Job
	err := c.do(ctx, http.MethodPost, "/v1/jobs/"+id+"/resume", nil, &job)
	return job, err
}

// Result fetches a done job's SweepResult. While the job is in any other
// state the daemon answers 409 ("conflict" code).
func (c *Client) Result(ctx context.Context, id string) (*muontrap.SweepResult, error) {
	var res muontrap.SweepResult
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// ResultByKey fetches a stored SweepResult by content cache key, with no
// job ID: any process that can recompute the key (or remembered it from
// Job.CacheKey) can retrieve the result.
func (c *Client) ResultByKey(ctx context.Context, key string) (*muontrap.SweepResult, error) {
	var res muontrap.SweepResult
	if err := c.do(ctx, http.MethodGet, "/v1/results/"+key, nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Catalog fetches the daemon's identifier registries.
func (c *Client) Catalog(ctx context.Context) (muontrap.Catalog, error) {
	var cat muontrap.Catalog
	err := c.do(ctx, http.MethodGet, "/v1/catalog", nil, &cat)
	return cat, err
}

// Stream follows a job's SSE stream until it reaches a terminal state
// and returns the terminal job snapshot. Each progress frame is handed
// to onProgress (which may be nil). Cancelling ctx abandons the stream
// without affecting the job.
//
// With retries configured, a dropped stream reconnects with
// Last-Event-ID set to the last frame id received, so the daemon
// resumes the feed after that frame — no progress frame is delivered
// twice, and a subscriber the daemon shed for falling behind picks back
// up where it left off.
func (c *Client) Stream(ctx context.Context, id string, onProgress func(muontrap.Progress)) (muontrap.Job, error) {
	var lastID string
	for attempt := 0; ; attempt++ {
		job, err := c.streamOnce(ctx, id, &lastID, onProgress)
		if err == nil {
			return job, nil
		}
		if attempt >= c.retries || ctx.Err() != nil {
			return muontrap.Job{}, err
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) && !retryableStatus(apiErr.Status) {
			return muontrap.Job{}, err
		}
		if err := c.backoff(ctx, attempt, retryAfterOf(err)); err != nil {
			return muontrap.Job{}, err
		}
		c.met.recordStreamReconnect()
	}
}

// streamOnce performs one streaming attempt, advancing *lastID past
// every frame it delivers.
func (c *Client) streamOnce(ctx context.Context, id string, lastID *string, onProgress func(muontrap.Progress)) (muontrap.Job, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return muontrap.Job{}, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if *lastID != "" {
		req.Header.Set("Last-Event-ID", *lastID)
	}
	c.authorize(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return muontrap.Job{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return muontrap.Job{}, decodeError(resp)
	}

	var event, frameID string
	var data bytes.Buffer
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte("id:")):
			frameID = string(bytes.TrimSpace(line[len("id:"):]))
		case bytes.HasPrefix(line, []byte("event:")):
			event = string(bytes.TrimSpace(line[len("event:"):]))
		case bytes.HasPrefix(line, []byte("data:")):
			data.Write(bytes.TrimSpace(line[len("data:"):]))
		case len(line) == 0:
			if event == "" && data.Len() == 0 {
				continue
			}
			job, terminal, err := dispatchSSE(event, data.Bytes(), onProgress)
			if err != nil {
				return muontrap.Job{}, err
			}
			if terminal {
				// The daemon ends the response after the terminal frame.
				// Reading to EOF lets net/http keep the connection for
				// the next request instead of dialling again.
				_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64*1024))
				return job, nil
			}
			if frameID != "" {
				*lastID = frameID
			}
			event = ""
			frameID = ""
			data.Reset()
		}
	}
	if err := sc.Err(); err != nil {
		return muontrap.Job{}, err
	}
	return muontrap.Job{}, fmt.Errorf("muontrapd: stream for job %s ended without a terminal event", id)
}

// dispatchSSE routes one complete SSE frame.
func dispatchSSE(event string, data []byte, onProgress func(muontrap.Progress)) (muontrap.Job, bool, error) {
	switch muontrap.JobState(event) {
	case muontrap.JobDone, muontrap.JobFailed, muontrap.JobCancelled, muontrap.JobInterrupted:
		var job muontrap.Job
		if err := json.Unmarshal(data, &job); err != nil {
			return muontrap.Job{}, false, fmt.Errorf("decoding terminal %s event: %w", event, err)
		}
		return job, true, nil
	}
	if event == "progress" && onProgress != nil {
		var p muontrap.Progress
		if err := json.Unmarshal(data, &p); err != nil {
			return muontrap.Job{}, false, fmt.Errorf("decoding progress event: %w", err)
		}
		onProgress(p)
	}
	return muontrap.Job{}, false, nil
}

// Sweep is the remote mirror of muontrap.Runner.Sweep: submit the
// matrix, stream progress (to the WithProgress callback, if configured)
// until the job finishes, and fetch the aggregated declaration-ordered
// result. A failed job surfaces its recorded error; a cancelled or
// interrupted job surfaces as an error naming the state. A preempted
// job is none of those — its stream simply stays open across the
// preemption, and Sweep returns the resumed attempt's result.
func (c *Client) Sweep(ctx context.Context, sw muontrap.Sweep, opts ...SubmitOption) (*muontrap.SweepResult, error) {
	job, err := c.Submit(ctx, sw, opts...)
	if err != nil {
		return nil, err
	}
	// Stream even a born-done (result-store hit) job: the daemon replays
	// the full per-cell sequence for finished jobs, so WithProgress fires
	// once per cell exactly as Runner.Sweep does for memoized cells.
	job, err = c.Stream(ctx, job.ID, c.progress)
	if err != nil {
		return nil, err
	}
	switch job.State {
	case muontrap.JobDone:
		return c.Result(ctx, job.ID)
	case muontrap.JobFailed:
		return nil, fmt.Errorf("muontrapd: job %s failed: %s", job.ID, job.Error)
	case muontrap.JobCancelled:
		return nil, fmt.Errorf("muontrapd: job %s was cancelled", job.ID)
	default:
		return nil, fmt.Errorf("muontrapd: job %s ended %s", job.ID, job.State)
	}
}
