package fleet_test

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/figures"
	"repro/muontrap"
	"repro/muontrap/client"
)

// freePort reserves an ephemeral TCP port and releases it for a daemon
// to claim. The tiny claim race is acceptable in tests.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

// buildDaemon compiles the real muontrapd binary once per test run.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "muontrapd")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/muontrapd")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building muontrapd: %v\n%s", err, out)
	}
	return bin
}

// startDaemon launches one muontrapd process and waits for its health
// probe. The returned cmd is SIGKILLed at cleanup unless the test
// killed it first.
func startDaemon(t *testing.T, bin string, port int, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(port)}, args...)...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})
	base := "http://127.0.0.1:" + strconv.Itoa(port)
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon on port %d never became healthy", port)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// fleetHealth fetches the coordinator's /v1/healthz counters.
func fleetHealth(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRealDaemonFleetKillDashNine is the out-of-process half of the
// chaos gate: a real coordinator process and two real worker processes
// (separate muontrapd binaries, real TCP, real kill -9), one worker
// SIGKILLed mid-cell after its first mid-run checkpoint lands on disk.
// The fleet must finish the sweep — the interrupted cell migrated via the
// coordinator's checkpoint store — and the table must be
// byte-identical to the single-machine reference.
func TestRealDaemonFleetKillDashNine(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives real daemon processes")
	}
	defer figures.ResetRunCache()
	sw := fig4Sweep()
	ref := reference(t, sw)

	bin := buildDaemon(t)
	coPort := freePort(t)
	coBase := "http://127.0.0.1:" + strconv.Itoa(coPort)
	coDir := t.TempDir()
	startDaemon(t, bin, coPort,
		"-coordinator", "-cache", coDir,
		"-checkpoint-every", strconv.Itoa(cadence),
		"-heartbeat-timeout", "500ms")

	type workerProc struct {
		cmd *exec.Cmd
		dir string
	}
	var workers []workerProc
	for i := 0; i < 2; i++ {
		port := freePort(t)
		dir := t.TempDir()
		cmd := startDaemon(t, bin, port,
			"-cache", dir,
			"-checkpoint-every", strconv.Itoa(cadence),
			"-join", coBase,
			"-advertise", "http://127.0.0.1:"+strconv.Itoa(port),
			"-heartbeat-interval", "100ms")
		workers = append(workers, workerProc{cmd: cmd, dir: dir})
	}

	// Wait for both workers to register.
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(coBase + "/fleet/v1/workers")
		alive := 0
		if err == nil {
			var body struct {
				Workers []struct {
					Alive bool `json:"alive"`
				} `json:"workers"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			for _, w := range body.Workers {
				if w.Alive {
					alive++
				}
			}
		}
		if alive >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 2 worker daemons registered in time", alive)
		}
		time.Sleep(50 * time.Millisecond)
	}

	c := client.New(coBase)
	job, err := c.Submit(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}

	// kill -9 the first worker the moment its first checkpoint slot appears
	// (the Mirror ships remote-first, so the checkpoint is already in the
	// coordinator's store).
	victim := workers[0]
	snapDir := filepath.Join(victim.dir, "snapshots")
	killDeadline := time.Now().Add(2 * time.Minute)
	for !hasSlot(snapDir) {
		if time.Now().After(killDeadline) {
			t.Fatal("no checkpoint appeared on the victim daemon before the kill deadline")
		}
		if j, err := c.Job(context.Background(), job.ID); err == nil && j.State.Terminal() {
			t.Fatalf("job reached %s before the victim ever checkpointed", j.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := victim.cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no journal flush
		t.Fatal(err)
	}
	_ = victim.cmd.Wait()

	final, err := c.Stream(context.Background(), job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != muontrap.JobDone {
		t.Fatalf("fleet job ended %s (%s), want done", final.State, final.Error)
	}
	got, err := c.Result(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(marshal(t, got)) != string(marshal(t, ref)) {
		t.Fatalf("fleet table differs from single-machine reference:\nfleet: %s\nref:   %s",
			marshal(t, got), marshal(t, ref))
	}

	health := fleetHealth(t, coBase)
	if mig, _ := health["migrations"].(float64); mig < 1 {
		t.Fatalf("no migration recorded after kill -9: %v", health)
	}
	// The survivor can finish the sweep before the victim's heartbeat
	// times out (500ms): the scheduler's tick marks it dead regardless of
	// whether a job is running, so wait for that rather than race it.
	deadDeadline := time.Now().Add(10 * time.Second)
	for {
		if dead, _ := health["dead_workers"].(float64); dead >= 1 {
			break
		}
		if time.Now().After(deadDeadline) {
			t.Fatalf("victim never marked dead: %v", health)
		}
		time.Sleep(50 * time.Millisecond)
		health = fleetHealth(t, coBase)
	}
}
