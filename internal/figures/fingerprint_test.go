package figures

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

func fullHash(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:16]
}

// TestFingerprintReadsTheBuildID: the running test binary carries a linker
// build ID, the fingerprint is derived from it (not from the file's bytes),
// is stable from call to call, is what BinFingerprint reports, and costs
// far less than hashing the executable did.
func TestFingerprintReadsTheBuildID(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	id := goBuildID(self)
	if id == "" {
		t.Skip("this test binary has no .note.go.buildid (not an ELF platform?)")
	}
	start := time.Now()
	fp := fingerprintFile(self)
	took := time.Since(start)
	if len(fp) != 16 || fp == "unknown" {
		t.Fatalf("fingerprint %q, want 16 hex digits", fp)
	}
	if again := fingerprintFile(self); again != fp {
		t.Fatalf("fingerprint not stable: %s then %s", fp, again)
	}
	if fp != BinFingerprint() {
		t.Fatalf("BinFingerprint() = %s, fingerprint of os.Executable() = %s", BinFingerprint(), fp)
	}
	if fp == fullHash(t, self) {
		t.Fatal("fingerprint equals the hash of the whole file: the build ID was not used")
	}
	t.Logf("build ID %q -> %s in %v", id, fp, took)
}

// TestFingerprintDiffersBetweenBinaries: another Go-built executable — the
// go tool itself, a different program by construction — has a different
// build ID and so a different fingerprint.
func TestFingerprintDiffersBetweenBinaries(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	other, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH to compare with")
	}
	if goBuildID(self) == "" || goBuildID(other) == "" {
		t.Skip("no build ID to compare")
	}
	if a, b := fingerprintFile(self), fingerprintFile(other); a == b {
		t.Fatalf("this test binary and %s share the fingerprint %s", other, a)
	}
}

// TestFingerprintFallsBackToTheFileHash: a file with no build ID to read —
// not ELF at all, or this binary with the note's descriptor emptied — is
// fingerprinted by its bytes, so two such files differ when their bytes do.
func TestFingerprintFallsBackToTheFileHash(t *testing.T) {
	dir := t.TempDir()
	text := filepath.Join(dir, "not-elf")
	if err := os.WriteFile(text, []byte("#!/bin/sh\necho simulator\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	if id := goBuildID(text); id != "" {
		t.Fatalf("read build ID %q from a shell script", id)
	}
	if got, want := fingerprintFile(text), fullHash(t, text); got != want {
		t.Fatalf("fingerprint of a non-ELF file %s, want its SHA-256 %s", got, want)
	}
	if got := fingerprintFile(filepath.Join(dir, "missing")); got != "unknown" {
		t.Fatalf("fingerprint of a missing file %q, want \"unknown\"", got)
	}

	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	id := goBuildID(self)
	if id == "" {
		t.Skip("this test binary has no .note.go.buildid")
	}
	// Zero the descriptor size in a copy: the note is there and empty.
	img, err := os.ReadFile(self)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(img, []byte(id))
	if at < 16 {
		t.Fatalf("build ID not found in the executable's bytes")
	}
	// The descriptor follows name size, descriptor size, type and "Go\0\0".
	copy(img[at-12:at-8], []byte{0, 0, 0, 0})
	emptied := filepath.Join(dir, "emptied")
	if err := os.WriteFile(emptied, img, 0o755); err != nil {
		t.Fatal(err)
	}
	if got := goBuildID(emptied); got != "" {
		t.Fatalf("read build ID %q from an emptied note", got)
	}
	if got, want := fingerprintFile(emptied), fullHash(t, emptied); got != want {
		t.Fatalf("fingerprint with an empty build ID %s, want the file's SHA-256 %s", got, want)
	}
}
