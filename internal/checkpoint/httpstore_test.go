package checkpoint

import (
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
	w := s.Section("cpu")
	w.U64(42)
	w.String(tag)
	s.Section("mem").Bytes([]byte("payload-" + tag))
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

	got, err := remote.Load(hash)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if string(got.Encode()) != string(snap.Encode()) {
		t.Fatal("round-tripped snapshot differs")
	}
	if remote.Fetches() != 1 {
		t.Fatalf("Fetches = %d, want 1", remote.Fetches())
	}

	const key = "midrun|wl=x|sch=y/z"
	if err := remote.Link(key, hash); err != nil {
		t.Fatalf("Link: %v", err)
	}
	if h, ok := remote.Resolve(key); !ok || h != hash {
		t.Fatalf("Resolve = %q, %v; want %q, true", h, ok, hash)
	}
	remote.Unlink(key)
	if _, ok := remote.Resolve(key); ok {
		t.Fatal("ref survived Unlink")
	}

	remote.Remove(hash)
	if _, err := remote.Load(hash); err == nil {
		t.Fatal("snapshot survived Remove")
	}
}

func TestHTTPStoreErrors(t *testing.T) {
	_, remote := newRemote(t)

	if _, err := remote.Load(strings.Repeat("ab", 32)); err == nil {
		t.Fatal("Load of unknown hash succeeded")
	}
	if _, ok := remote.Resolve("no-such-key"); ok {
		t.Fatal("Resolve of unknown key succeeded")
	}
	if err := remote.Link("k", "not-a-hash"); err == nil {
		t.Fatal("Link with malformed hash succeeded")
	}
	// A dead endpoint surfaces as errors, not panics.
	dead := NewHTTPStore("http://127.0.0.1:1/store", nil)
	if _, err := dead.Put(sampleSnap(t, "x")); err == nil {
		t.Fatal("Put to dead endpoint succeeded")
	}
	if _, ok := dead.Resolve("k"); ok {
		t.Fatal("Resolve against dead endpoint succeeded")
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

// TestStoreHandlerRejectsLies pins the server-side verification: a PUT
// whose body does not hash to the claimed name must be rejected and must
// not leave linkable content behind.
func TestStoreHandlerRejectsLies(t *testing.T) {
	backing, remote := newRemote(t)
	srv := httptest.NewServer(StoreHandler(backing))
	defer srv.Close()

	snap := sampleSnap(t, "honest")
	lie := strings.Repeat("00", 32)
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/snap/"+lie, strings.NewReader(string(snap.Encode())))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("lying PUT: status %d, want 400", resp.StatusCode)
	}
	// Neither the lie nor the true hash is servable afterwards.
	if _, err := remote.Load(lie); err == nil {
		t.Fatal("lying hash became loadable")
	}
	if _, err := remote.Load(snap.Hash()); err == nil {
		t.Fatal("true hash of rejected upload became loadable")
	}

	// A lie about bytes the store legitimately holds must cost nothing: the
	// honest object stays loadable and no file is written or removed.
	held := sampleSnap(t, "held")
	heldHash, err := backing.Put(held)
	if err != nil {
		t.Fatal(err)
	}
	before := dirNames(t, backing.Dir())
	req, err = http.NewRequest(http.MethodPut, srv.URL+"/snap/"+lie, strings.NewReader(string(held.Encode())))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("lying PUT of held content: status %d, want 400", resp.StatusCode)
	}
	if _, err := remote.Load(heldHash); err != nil {
		t.Fatalf("a mis-named PUT removed a legitimately stored snapshot: %v", err)
	}
	if after := dirNames(t, backing.Dir()); !slices.Equal(before, after) {
		t.Fatalf("a rejected PUT changed the store directory: %v -> %v", before, after)
	}

	// Garbage bodies and malformed hashes are 400s too.
	for _, tc := range []struct{ path, body string }{
		{"/snap/" + lie, "not a snapshot"},
		{"/snap/zzz", string(snap.Encode())},
		{"/ref?key=k", "not-a-hash"},
		{"/ref", strings.Repeat("ab", 32)},
	} {
		req, err := http.NewRequest(http.MethodPut, srv.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("PUT %s: status %d, want 400", tc.path, resp.StatusCode)
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

	snap := sampleSnap(t, "m")
	hash, err := m.Put(snap)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := local.Load(hash); err != nil {
		t.Fatalf("Put did not land locally: %v", err)
	}
	if _, err := remoteBacking.Load(hash); err != nil {
		t.Fatalf("Put did not land remotely: %v", err)
	}

	const key = "midrun|mirror"
	if err := m.Link(key, hash); err != nil {
		t.Fatalf("Link: %v", err)
	}
	// The ordering invariant: a local ref implies the remote ref exists.
	if _, ok := local.Resolve(key); !ok {
		t.Fatal("Link did not land locally")
	}
	if h, ok := remote.Resolve(key); !ok || h != hash {
		t.Fatalf("Link did not land remotely: %q, %v", h, ok)
	}
	if h, ok := m.Resolve(key); !ok || h != hash {
		t.Fatalf("Mirror Resolve = %q, %v", h, ok)
	}

	// Drop the local copy: Load falls back to the remote and backfills.
	local.Remove(hash)
	got, err := m.Load(hash)
	if err != nil {
		t.Fatalf("Load after local prune: %v", err)
	}
	if got.Hash() != hash {
		t.Fatalf("fallback Load hash = %s, want %s", got.Hash(), hash)
	}
	if remote.Fetches() == 0 {
		t.Fatal("fallback Load did not fetch from the remote")
	}
	if _, err := local.Load(hash); err != nil {
		t.Fatalf("fallback Load did not backfill locally: %v", err)
	}

	// Drop only the local ref: Resolve falls back to the remote one.
	local.Unlink(key)
	if h, ok := m.Resolve(key); !ok || h != hash {
		t.Fatalf("Resolve after local unlink = %q, %v", h, ok)
	}

	m.Unlink(key)
	if _, ok := m.Resolve(key); ok {
		t.Fatal("ref survived Mirror Unlink")
	}
	m.Remove(hash)
	if _, err := m.Load(hash); err == nil {
		t.Fatal("snapshot survived Mirror Remove")
	}
}

// TestMirrorRemoteFailureIsLoud pins the durability contract: when the
// remote side is down, Put and Link fail rather than silently degrading
// to local-only checkpoints.
func TestMirrorRemoteFailureIsLoud(t *testing.T) {
	local, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := &Mirror{Local: local, Remote: NewHTTPStore("http://127.0.0.1:1/store", nil)}

	snap := sampleSnap(t, "down")
	if _, err := m.Put(snap); err == nil {
		t.Fatal("Put with dead remote succeeded")
	}
	if err := m.Link("k", snap.Hash()); err == nil {
		t.Fatal("Link with dead remote succeeded")
	}
	// And because Link is remote-first, no local ref was recorded.
	if _, ok := local.Resolve("k"); ok {
		t.Fatal("failed Link left a local ref behind")
	}
}
