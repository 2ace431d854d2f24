package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// This file makes checkpoint chains network-reachable: StoreHandler
// serves an on-disk Store's chains over HTTP, HTTPStore is the matching
// client, and Mirror composes a local store with a remote one so a
// machine's mid-run checkpoints are simultaneously resumable locally and
// fetchable by any other machine in a fleet. A chain is keyed by the same
// opaque input key on every side, so a chain written through a Mirror on
// one worker is found, unchanged, through an HTTPStore on another.

// ChainStore is the checkpoint chain contract shared by the on-disk
// Store, the HTTPStore client and the Mirror composition: one chain per
// input key, whose newest intact checkpoint is what a resumed run
// restores.
type ChainStore interface {
	// Save records s as checkpoint ordinal g of the chain, superseding
	// checkpoint g-2.
	Save(key string, g uint64, s *Snapshot) error
	// Latest returns the chain's newest intact checkpoint and its ordinal:
	// (nil, 0, nil) when the chain does not exist, an error when it exists
	// but holds nothing intact.
	Latest(key string) (*Snapshot, uint64, error)
	// Drop removes the chain. Best-effort: retiring a chain must never
	// fail a run.
	Drop(key string)
}

// Compile-time checks: every store flavor speaks the same contract.
var (
	_ ChainStore = (*Store)(nil)
	_ ChainStore = (*HTTPStore)(nil)
	_ ChainStore = (*Mirror)(nil)
)

// StoreHandler serves st over HTTP. Mount it under a prefix with
// http.StripPrefix; HTTPStore with the same base URL is the client.
//
//	PUT    /snap/{hash}   store snapshot (verified)      → 204 | 400
//	GET    /chain?key=K   newest intact slot record      → 200 | 404
//	PUT    /chain?key=K   save slot record (verified)    → 204 | 400
//	DELETE /chain?key=K   drop the chain                 → 204
//
// A slot record is a chain slot's bytes: ordinal, length and SHA-256 of
// the encoding, then the encoding. Every upload is re-hashed server-side
// before it is stored: a client cannot poison the store with bytes that
// do not hash to what they claim, so every fleet member can trust what it
// fetches.
func StoreHandler(st *Store) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /snap/{hash}", func(w http.ResponseWriter, r *http.Request) {
		hash := r.PathValue("hash")
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
		// Check the claimed name before touching the store: a lie — a
		// malformed name included — costs no write, and bytes the store
		// already holds under their true name stay there.
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
	mux.HandleFunc("/chain", func(w http.ResponseWriter, r *http.Request) {
		key := r.URL.Query().Get("key")
		if key == "" {
			http.Error(w, "missing chain key", http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodGet:
			snap, g, err := st.Latest(key)
			switch {
			case err != nil:
				http.Error(w, err.Error(), http.StatusInternalServerError)
			case snap == nil:
				http.Error(w, "unknown chain", http.StatusNotFound)
			default:
				w.Header().Set("Content-Type", "application/octet-stream")
				_, _ = w.Write(encodeSlot(g, snap))
			}
		case http.MethodPut:
			b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, slotHeaderSize+maxSnapshotBytes))
			if err != nil {
				http.Error(w, "reading slot body: "+err.Error(), http.StatusBadRequest)
				return
			}
			snap, g, err := decodeSlot(b)
			if err != nil {
				http.Error(w, "malformed slot: "+err.Error(), http.StatusBadRequest)
				return
			}
			if err := st.Save(key, g, snap); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		case http.MethodDelete:
			st.Drop(key)
			w.WriteHeader(http.StatusNoContent)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	return mux
}

// maxSnapshotBytes bounds one uploaded snapshot (a full-machine image of
// the simulated system is a few hundred KiB; 1 GiB is far beyond any legitimate
// encoding and merely stops a hostile peer exhausting memory).
const maxSnapshotBytes = 1 << 30

// HTTPStore is a ChainStore client for a StoreHandler served at a base
// URL (e.g. "http://coordinator:7077/fleet/v1/store"). It is safe for
// concurrent use. Fetches() counts checkpoints actually downloaded, which
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

// Fetches reports how many checkpoints this client has downloaded.
func (h *HTTPStore) Fetches() uint64 { return h.fetches.Load() }

func (h *HTTPStore) chainURL(key string) string {
	// The key is an opaque canonical string (it embeds '|', '=', '/'):
	// hex-encode rather than URL-encode so no middlebox re-normalizes it.
	return h.base + "/chain?key=" + hex.EncodeToString([]byte(key))
}

// errNotFound is a 404 from the store: nothing under that name.
var errNotFound = errors.New("checkpoint: not in remote store")

// do runs one request and returns the body for 2xx, errNotFound for 404,
// an error otherwise.
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
	b, err := io.ReadAll(io.LimitReader(resp.Body, slotHeaderSize+maxSnapshotBytes))
	if err != nil {
		return nil, err
	}
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return nil, errNotFound
	case resp.StatusCode < 200 || resp.StatusCode > 299:
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

// Save uploads checkpoint g of the chain as one slot record.
func (h *HTTPStore) Save(key string, g uint64, s *Snapshot) error {
	_, err := h.do(http.MethodPut, h.chainURL(key), bytes.NewReader(encodeSlot(g, s)))
	return err
}

// Latest downloads and verifies the chain's newest intact checkpoint.
func (h *HTTPStore) Latest(key string) (*Snapshot, uint64, error) {
	b, err := h.do(http.MethodGet, h.chainURL(key), nil)
	if errors.Is(err, errNotFound) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	s, g, err := decodeSlot(b)
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint: remote store corruption: %w", err)
	}
	h.fetches.Add(1)
	return s, g, nil
}

// Drop removes the remote chain, best-effort.
func (h *HTTPStore) Drop(key string) {
	_, _ = h.do(http.MethodDelete, h.chainURL(key), nil)
}

// Mirror is a ChainStore that pairs a machine's local store with a
// remote (fleet-shared) one. Reads prefer local and fall back to the
// remote; writes land in both, remote first — so once a local slot holds
// a checkpoint, the same checkpoint is already fetchable by every other
// fleet member. A worker killed the instant after its local slot landed
// has, by construction, already shipped the checkpoint.
//
// A write that fails on either side returns the error: the caller (the
// mid-run checkpoint sink) treats it as "this checkpoint did not
// persist" and says so loudly, because silently degrading to local-only
// durability would break exactly the migration the fleet exists for.
type Mirror struct {
	Local  ChainStore
	Remote ChainStore
}

// Save writes the checkpoint remotely, then locally.
func (m *Mirror) Save(key string, g uint64, s *Snapshot) error {
	if err := m.Remote.Save(key, g, s); err != nil {
		return fmt.Errorf("mirror remote: %w", err)
	}
	return m.Local.Save(key, g, s)
}

// Latest prefers the local chain and falls back to the remote one.
func (m *Mirror) Latest(key string) (*Snapshot, uint64, error) {
	s, g, lerr := m.Local.Latest(key)
	if s != nil {
		return s, g, nil
	}
	s, g, rerr := m.Remote.Latest(key)
	if s != nil {
		return s, g, nil
	}
	return nil, 0, errors.Join(lerr, rerr)
}

// Drop removes the chain from both sides.
func (m *Mirror) Drop(key string) {
	m.Local.Drop(key)
	m.Remote.Drop(key)
}
