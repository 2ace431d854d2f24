package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
)

// sampleSnap builds a small two-section snapshot with distinguishable
// content, so tests can tell snapshots apart by hash.
func sampleSnap(t *testing.T, tag string) *Snapshot {
	t.Helper()
	s := New()
	putBytes(s, "cpu", append([]byte{42, 0, 0, 0, 0, 0, 0, 0}, tag...))
	putBytes(s, "mem", []byte("payload-"+tag))
	return s
}

// newRemote serves a fresh on-disk store over HTTP and returns the
// backing store plus a client for it.
func newRemote(t *testing.T) (*Store, *HTTPStore) {
	t.Helper()
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(StoreHandler(st))
	t.Cleanup(srv.Close)
	return st, NewHTTPStore(srv.URL, srv.Client())
}

// wireKey is the key a StoreHandler files a client's chain under: the
// client hex-encodes the opaque key into the query string.
func wireKey(key string) string { return hex.EncodeToString([]byte(key)) }

// wantLatest asserts a chain's newest intact checkpoint is s at ordinal g.
func wantLatest(t *testing.T, cs ChainStore, key string, g uint64, s *Snapshot) {
	t.Helper()
	got, gotG, err := cs.Latest(key)
	if err != nil || got == nil {
		t.Fatalf("Latest(%q) = %v, %v; want ordinal %d", key, got, err, g)
	}
	if gotG != g || !bytes.Equal(got.Encode(), s.Encode()) {
		t.Fatalf("Latest(%q) = ordinal %d (hash %s), want %d (hash %s)", key, gotG, got.Hash(), g, s.Hash())
	}
}

// wantNoChain asserts the chain does not exist.
func wantNoChain(t *testing.T, cs ChainStore, key string) {
	t.Helper()
	if got, g, err := cs.Latest(key); got != nil || err != nil {
		t.Fatalf("Latest(%q) = ordinal %d, %v; want no chain", key, g, err)
	}
}

func TestHTTPStoreRoundTrip(t *testing.T) {
	backing, remote := newRemote(t)

	snap := sampleSnap(t, "a")
	hash, err := remote.Put(snap)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if hash != snap.Hash() {
		t.Fatalf("Put returned %s, want %s", hash, snap.Hash())
	}
	// The upload landed in the backing store under the same hash.
	if _, err := backing.Load(hash); err != nil {
		t.Fatalf("backing store missing uploaded snapshot: %v", err)
	}

	const key = "midrun|wl=x|sch=y/z"
	wantNoChain(t, remote, key)
	a, b := sampleSnap(t, "g1"), sampleSnap(t, "g2")
	if err := remote.Save(key, 1, a); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := remote.Save(key, 2, b); err != nil {
		t.Fatalf("Save: %v", err)
	}
	wantLatest(t, remote, key, 2, b)
	if remote.Fetches() != 1 {
		t.Fatalf("Fetches = %d, want 1", remote.Fetches())
	}
	// The server holds both slots, exactly as a local chain would.
	wantLatest(t, backing, wireKey(key), 2, b)

	remote.Drop(key)
	wantNoChain(t, remote, key)
	if names := dirNames(t, backing.Dir()); len(names) != 1 {
		t.Fatalf("Drop left %v in the store, want only the Put snapshot", names)
	}
}

func TestHTTPStoreErrors(t *testing.T) {
	backing, remote := newRemote(t)

	// A chain that exists but holds nothing intact is an error, not "no
	// chain": the caller must be able to say its work was lost.
	if err := os.WriteFile(backing.slotPath(wireKey("k"), 0), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _, err := remote.Latest("k"); got != nil || err == nil {
		t.Fatalf("Latest over a garbled chain = %v, %v; want an error", got, err)
	}
	// A dead endpoint surfaces as errors, not panics.
	dead := NewHTTPStore("http://127.0.0.1:1/store", nil)
	if _, err := dead.Put(sampleSnap(t, "x")); err == nil {
		t.Fatal("Put to dead endpoint succeeded")
	}
	if err := dead.Save("k", 1, sampleSnap(t, "x")); err == nil {
		t.Fatal("Save to dead endpoint succeeded")
	}
	if _, _, err := dead.Latest("k"); err == nil {
		t.Fatal("Latest against dead endpoint succeeded")
	}
}

// dirNames lists a directory's entries, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// put sends one PUT to the handler and returns the status.
func put(t *testing.T, srv *httptest.Server, path string, body []byte) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, srv.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestStoreHandlerRejectsLies pins the server-side verification: an
// upload whose body does not hash to what it claims must be rejected and
// must not leave anything behind.
func TestStoreHandlerRejectsLies(t *testing.T) {
	backing, remote := newRemote(t)
	srv := httptest.NewServer(StoreHandler(backing))
	defer srv.Close()

	snap := sampleSnap(t, "honest")
	lie := strings.Repeat("00", 32)
	if code := put(t, srv, "/snap/"+lie, snap.Encode()); code != http.StatusBadRequest {
		t.Fatalf("lying PUT: status %d, want 400", code)
	}
	if names := dirNames(t, backing.Dir()); len(names) != 0 {
		t.Fatalf("a rejected PUT wrote %v", names)
	}

	// A lie about bytes the store legitimately holds must cost nothing: the
	// honest object stays and no file is written or removed.
	held := sampleSnap(t, "held")
	heldHash, err := backing.Put(held)
	if err != nil {
		t.Fatal(err)
	}
	before := dirNames(t, backing.Dir())
	if code := put(t, srv, "/snap/"+lie, held.Encode()); code != http.StatusBadRequest {
		t.Fatalf("lying PUT of held content: status %d, want 400", code)
	}
	if _, err := backing.Load(heldHash); err != nil {
		t.Fatalf("a mis-named PUT removed a legitimately stored snapshot: %v", err)
	}
	if after := dirNames(t, backing.Dir()); !slices.Equal(before, after) {
		t.Fatalf("a rejected PUT changed the store directory: %v -> %v", before, after)
	}

	// A chain upload is re-hashed too: a slot whose hash does not match its
	// image, or whose image is no snapshot, never reaches a slot.
	const key = "midrun|lies"
	rec := encodeSlot(1, snap)
	flipped := bytes.Clone(rec)
	flipped[len(flipped)-1] ^= 1
	img := []byte("not a snapshot")
	notSnap := append(make([]byte, slotHeaderSize), img...)
	sum := sha256.Sum256(img)
	putSlotHeader(notSnap, 1, uint64(len(img)), sum[:])
	for name, body := range map[string][]byte{
		"bit flip":    flipped,
		"truncated":   rec[:len(rec)-1],
		"short":       rec[:slotHeaderSize-1],
		"no snapshot": notSnap,
	} {
		if code := put(t, srv, "/chain?key="+wireKey(key), body); code != http.StatusBadRequest {
			t.Errorf("PUT /chain (%s): status %d, want 400", name, code)
		}
	}
	wantNoChain(t, remote, key)
	if after := dirNames(t, backing.Dir()); !slices.Equal(before, after) {
		t.Fatalf("a rejected chain upload changed the store directory: %v -> %v", before, after)
	}

	// Garbage bodies, malformed hashes and missing keys are 400s too.
	for _, tc := range []struct{ path, body string }{
		{"/snap/" + lie, "not a snapshot"},
		{"/snap/zzz", string(snap.Encode())},
		{"/chain", string(rec)},
	} {
		if code := put(t, srv, tc.path, []byte(tc.body)); code != http.StatusBadRequest {
			t.Errorf("PUT %s: status %d, want 400", tc.path, code)
		}
	}
}

func TestMirrorWriteOrderingAndFallback(t *testing.T) {
	local, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	remoteBacking, remote := newRemote(t)
	m := &Mirror{Local: local, Remote: remote}

	const key = "midrun|mirror"
	snap := sampleSnap(t, "m")
	if err := m.Save(key, 1, snap); err != nil {
		t.Fatalf("Save: %v", err)
	}
	wantLatest(t, local, key, 1, snap)
	wantLatest(t, remoteBacking, wireKey(key), 1, snap)
	if remote.Fetches() != 0 {
		t.Fatal("a local hit fetched from the remote")
	}
	wantLatest(t, m, key, 1, snap)

	// Drop the local chain: Latest falls back to the remote.
	local.Drop(key)
	wantLatest(t, m, key, 1, snap)
	if remote.Fetches() == 0 {
		t.Fatal("fallback Latest did not fetch from the remote")
	}

	m.Drop(key)
	wantNoChain(t, m, key)
	wantNoChain(t, remote, key)
}

// TestMirrorRemoteFailureIsLoud pins the durability contract: when the
// remote side is down, Save fails rather than silently degrading to
// local-only checkpoints — and, because it is remote-first, leaves no
// local slot behind.
func TestMirrorRemoteFailureIsLoud(t *testing.T) {
	local, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := &Mirror{Local: local, Remote: NewHTTPStore("http://127.0.0.1:1/store", nil)}

	if err := m.Save("k", 1, sampleSnap(t, "down")); err == nil {
		t.Fatal("Save with dead remote succeeded")
	}
	if names := dirNames(t, local.Dir()); len(names) != 0 {
		t.Fatalf("failed Save left %v in the local store", names)
	}
}
