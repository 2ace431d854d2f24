package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// This file makes the content-addressed snapshot store network-reachable:
// StoreHandler serves an on-disk Store over HTTP, HTTPStore is the
// matching client, and Mirror composes a local store with a remote one so
// a machine's mid-run checkpoints are simultaneously resumable locally
// and fetchable by any other machine in a fleet. The keying discipline is
// exactly the on-disk store's — content hashes for snapshots, opaque
// input keys for refs — so a checkpoint chain written through a Mirror on
// one worker resolves, unchanged, through an HTTPStore on another.

// ContentStore is the snapshot store contract shared by the on-disk
// Store, the HTTPStore client and the Mirror composition: content-hashed
// snapshot blobs plus input-key refs resolving to them. Remove and
// Unlink are best-effort by contract (pruning must never fail a run).
type ContentStore interface {
	// Put writes the snapshot under its content hash and returns the hash.
	Put(s *Snapshot) (string, error)
	// Load reads and verifies the snapshot with the given content hash.
	Load(hash string) (*Snapshot, error)
	// Remove deletes the snapshot with the given content hash, if present.
	Remove(hash string)
	// Link records that the input key produced the snapshot with the hash.
	Link(key, hash string) error
	// Unlink removes the ref recorded for an input key, if present.
	Unlink(key string)
	// Resolve returns the content hash previously linked to the input key.
	Resolve(key string) (string, bool)
}

// Compile-time checks: every store flavor speaks the same contract.
var (
	_ ContentStore = (*Store)(nil)
	_ ContentStore = (*HTTPStore)(nil)
	_ ContentStore = (*Mirror)(nil)
)

// validHash reports whether s has the exact shape a content hash has: 64
// lowercase hex digits. The HTTP surface takes hashes from URLs, so
// anything else must be rejected before a path or filename is built.
func validHash(s string) bool {
	if len(s) != sha256.Size*2 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// StoreHandler serves st over HTTP. Mount it under a prefix with
// http.StripPrefix; HTTPStore with the same base URL is the client.
//
//	GET    /snap/{hash}   snapshot bytes            → 200 | 404
//	PUT    /snap/{hash}   store snapshot (verified) → 204 | 400
//	DELETE /snap/{hash}   prune snapshot            → 204
//	GET    /ref?key=K     resolve ref               → 200 hash | 404
//	PUT    /ref?key=K     link ref (body = hash)    → 204 | 400
//	DELETE /ref?key=K     unlink ref                → 204
//
// A PUT snapshot is re-hashed server-side before it is stored: a client
// cannot poison the store with bytes that do not hash to the name they
// claim, so every fleet member can trust what it fetches.
func StoreHandler(st *Store) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /snap/{hash}", func(w http.ResponseWriter, r *http.Request) {
		hash := r.PathValue("hash")
		if !validHash(hash) {
			http.Error(w, "malformed snapshot hash", http.StatusBadRequest)
			return
		}
		snap, err := st.Load(hash)
		if err != nil {
			http.Error(w, "unknown snapshot", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(snap.Encode())
	})
	mux.HandleFunc("PUT /snap/{hash}", func(w http.ResponseWriter, r *http.Request) {
		hash := r.PathValue("hash")
		if !validHash(hash) {
			http.Error(w, "malformed snapshot hash", http.StatusBadRequest)
			return
		}
		b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSnapshotBytes))
		if err != nil {
			http.Error(w, "reading snapshot body: "+err.Error(), http.StatusBadRequest)
			return
		}
		snap, err := Decode(b)
		if err != nil {
			http.Error(w, "malformed snapshot: "+err.Error(), http.StatusBadRequest)
			return
		}
		// Check the claimed name before touching the store: a lie costs no
		// write, and bytes the store already holds under their true name
		// stay there.
		if got := snap.Hash(); got != hash {
			http.Error(w, fmt.Sprintf("content hashes to %s, not %s", got, hash), http.StatusBadRequest)
			return
		}
		if _, err := st.put(snap, hash); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("DELETE /snap/{hash}", func(w http.ResponseWriter, r *http.Request) {
		if hash := r.PathValue("hash"); validHash(hash) {
			st.Remove(hash)
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /ref", func(w http.ResponseWriter, r *http.Request) {
		key := r.URL.Query().Get("key")
		hash, ok := st.Resolve(key)
		if key == "" || !ok {
			http.Error(w, "unknown ref", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain")
		_, _ = io.WriteString(w, hash)
	})
	mux.HandleFunc("PUT /ref", func(w http.ResponseWriter, r *http.Request) {
		key := r.URL.Query().Get("key")
		if key == "" {
			http.Error(w, "missing ref key", http.StatusBadRequest)
			return
		}
		b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1024))
		if err != nil {
			http.Error(w, "reading ref body: "+err.Error(), http.StatusBadRequest)
			return
		}
		hash := strings.TrimSpace(string(b))
		if !validHash(hash) {
			http.Error(w, "ref body is not a content hash", http.StatusBadRequest)
			return
		}
		if err := st.Link(key, hash); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("DELETE /ref", func(w http.ResponseWriter, r *http.Request) {
		if key := r.URL.Query().Get("key"); key != "" {
			st.Unlink(key)
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

// maxSnapshotBytes bounds one uploaded snapshot (a full-machine image of
// the simulated system is a few hundred KiB; 1 GiB is far beyond any legitimate
// encoding and merely stops a hostile peer exhausting memory).
const maxSnapshotBytes = 1 << 30

// HTTPStore is a ContentStore client for a StoreHandler served at a base
// URL (e.g. "http://coordinator:7077/fleet/v1/store"). It is safe for
// concurrent use. Fetches() counts snapshots actually downloaded, which
// lets tests prove a migrated cell really restored over the network.
type HTTPStore struct {
	base    string
	hc      *http.Client
	fetches atomic.Uint64
}

// NewHTTPStore builds a client for the store served at base; hc nil uses
// a dedicated client with a 30s timeout (store operations are bounded
// blob transfers, never streams).
func NewHTTPStore(base string, hc *http.Client) *HTTPStore {
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	return &HTTPStore{base: strings.TrimRight(base, "/"), hc: hc}
}

// Fetches reports how many snapshots this client has downloaded.
func (h *HTTPStore) Fetches() uint64 { return h.fetches.Load() }

func (h *HTTPStore) refURL(key string) string {
	// The key is an opaque canonical string (it embeds '|', '=', '/'):
	// hex-encode rather than URL-encode so no middlebox re-normalizes it.
	return h.base + "/ref?key=" + hex.EncodeToString([]byte(key))
}

// do runs one request and returns the body for 2xx, an error otherwise.
func (h *HTTPStore) do(method, url string, body io.Reader) ([]byte, error) {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return nil, err
	}
	resp, err := h.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxSnapshotBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("checkpoint: remote store %s %s: HTTP %d: %s",
			method, url, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// Put uploads the snapshot under its content hash.
func (h *HTTPStore) Put(s *Snapshot) (string, error) {
	enc := s.Encode()
	sum := sha256.Sum256(enc)
	hash := hex.EncodeToString(sum[:])
	if _, err := h.do(http.MethodPut, h.base+"/snap/"+hash, bytes.NewReader(enc)); err != nil {
		return "", err
	}
	return hash, nil
}

// Load downloads and verifies the snapshot with the given content hash.
func (h *HTTPStore) Load(hash string) (*Snapshot, error) {
	b, err := h.do(http.MethodGet, h.base+"/snap/"+hash, nil)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != hash {
		return nil, fmt.Errorf("checkpoint: remote store corruption: %s hashes to %s", hash, got)
	}
	h.fetches.Add(1)
	return Decode(b)
}

// Remove prunes the remote snapshot, best-effort.
func (h *HTTPStore) Remove(hash string) {
	_, _ = h.do(http.MethodDelete, h.base+"/snap/"+hash, nil)
}

// Link records the key → hash ref remotely.
func (h *HTTPStore) Link(key, hash string) error {
	_, err := h.do(http.MethodPut, h.refURL(key), strings.NewReader(hash))
	return err
}

// Unlink removes the remote ref, best-effort.
func (h *HTTPStore) Unlink(key string) {
	_, _ = h.do(http.MethodDelete, h.refURL(key), nil)
}

// Resolve fetches the content hash linked to the key.
func (h *HTTPStore) Resolve(key string) (string, bool) {
	b, err := h.do(http.MethodGet, h.refURL(key), nil)
	if err != nil {
		return "", false
	}
	hash := strings.TrimSpace(string(b))
	if !validHash(hash) {
		return "", false
	}
	return hash, true
}

// Mirror is a ContentStore that pairs a machine's local store with a
// remote (fleet-shared) one. Reads prefer local and fall back to the
// remote; writes land in both. Write ordering is chosen so observing a
// local artifact implies the remote one exists:
//
//   - Put writes local first, then remote — a snapshot is never
//     advertised anywhere before it is durable somewhere.
//   - Link writes remote first, then local — once a local ref resolves,
//     the same ref (and its snapshot) is already fetchable by every
//     other fleet member. A worker killed the instant after its local
//     ref landed has, by construction, already shipped the checkpoint.
//
// A write that fails on either side returns the error: the caller (the
// mid-run checkpoint sink) treats it as "this checkpoint did not
// persist" and says so loudly, because silently degrading to local-only
// durability would break exactly the migration the fleet exists for.
type Mirror struct {
	Local  ContentStore
	Remote ContentStore
}

// Put writes the snapshot locally, then remotely.
func (m *Mirror) Put(s *Snapshot) (string, error) {
	hash, err := m.Local.Put(s)
	if err != nil {
		return "", err
	}
	if _, err := m.Remote.Put(s); err != nil {
		return "", fmt.Errorf("mirror remote: %w", err)
	}
	return hash, nil
}

// Load reads locally, falling back to the remote store. A remote hit is
// backfilled into the local store, best-effort, so a resumed run's next
// checkpoint chain starts warm.
func (m *Mirror) Load(hash string) (*Snapshot, error) {
	if snap, err := m.Local.Load(hash); err == nil {
		return snap, nil
	}
	snap, err := m.Remote.Load(hash)
	if err != nil {
		return nil, err
	}
	_, _ = m.Local.Put(snap)
	return snap, nil
}

// Remove prunes both sides.
func (m *Mirror) Remove(hash string) {
	m.Local.Remove(hash)
	m.Remote.Remove(hash)
}

// Link records the ref remotely first, then locally.
func (m *Mirror) Link(key, hash string) error {
	if err := m.Remote.Link(key, hash); err != nil {
		return fmt.Errorf("mirror remote: %w", err)
	}
	return m.Local.Link(key, hash)
}

// Unlink removes the ref from both sides.
func (m *Mirror) Unlink(key string) {
	m.Local.Unlink(key)
	m.Remote.Unlink(key)
}

// Resolve prefers the local ref and falls back to the remote one.
func (m *Mirror) Resolve(key string) (string, bool) {
	if hash, ok := m.Local.Resolve(key); ok {
		return hash, ok
	}
	return m.Remote.Resolve(key)
}
