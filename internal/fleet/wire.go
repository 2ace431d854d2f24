package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
)

// The fleet wire messages: worker registration and heartbeat (worker →
// coordinator) and the worker status listing (coordinator → observer).
// Every inbound message is decoded strictly — unknown fields and malformed
// values are errors, never silently-zeroed surprises — through the
// Decode* helpers, which the fuzz suite holds to a canonical round-trip
// property: whatever decodes must re-encode and re-decode to itself.

// RegisterRequest announces a worker to the coordinator
// (POST /fleet/v1/register). BaseURL is the address the coordinator
// dials the worker's /v1/jobs surface at, so it must be reachable from
// the coordinator, not merely from the worker itself.
type RegisterRequest struct {
	Name    string `json:"name"`
	BaseURL string `json:"base_url"`
}

// RegisterResponse carries the coordinator-assigned worker identity the
// worker heartbeats under.
type RegisterResponse struct {
	WorkerID string `json:"worker_id"`
}

// HeartbeatRequest keeps a registered worker alive
// (POST /fleet/v1/heartbeat). A worker the coordinator no longer knows —
// it was marked dead, or the coordinator restarted — is answered 404,
// the signal to re-register.
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
}

// WorkerStatus is one row of the coordinator's worker listing
// (GET /fleet/v1/workers).
type WorkerStatus struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	BaseURL  string `json:"base_url"`
	Alive    bool   `json:"alive"`
	Inflight int    `json:"inflight"`
}

// decodeStrict unmarshals one wire message rejecting unknown fields and
// trailing garbage.
func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("fleet: trailing data after message")
	}
	return nil
}

// validBaseURL reports whether s is an absolute http(s) URL the
// coordinator could dial.
func validBaseURL(s string) bool {
	u, err := url.Parse(s)
	return err == nil && (u.Scheme == "http" || u.Scheme == "https") && u.Host != ""
}

// DecodeRegisterRequest strictly decodes and validates a registration.
func DecodeRegisterRequest(b []byte) (RegisterRequest, error) {
	var req RegisterRequest
	if err := decodeStrict(b, &req); err != nil {
		return RegisterRequest{}, fmt.Errorf("fleet: register request: %w", err)
	}
	if req.Name == "" {
		return RegisterRequest{}, fmt.Errorf("fleet: register request: empty worker name")
	}
	if !validBaseURL(req.BaseURL) {
		return RegisterRequest{}, fmt.Errorf("fleet: register request: base_url %q is not an absolute http(s) URL", req.BaseURL)
	}
	return req, nil
}

// DecodeHeartbeatRequest strictly decodes and validates a heartbeat.
func DecodeHeartbeatRequest(b []byte) (HeartbeatRequest, error) {
	var req HeartbeatRequest
	if err := decodeStrict(b, &req); err != nil {
		return HeartbeatRequest{}, fmt.Errorf("fleet: heartbeat request: %w", err)
	}
	if req.WorkerID == "" {
		return HeartbeatRequest{}, fmt.Errorf("fleet: heartbeat request: empty worker_id")
	}
	return req, nil
}
