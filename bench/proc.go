package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procs tracks every process and temp directory the benchmark creates, so
// one call tears all of it down — at normal exit, on an error path and on
// SIGINT/SIGTERM. Every started process also carries a parent-death
// signal, so a killed driver cannot leave daemons behind.
type procs struct {
	mu   sync.Mutex
	cmds map[*exec.Cmd]bool
	dirs []string
	base string // parent of every temp dir; inside the checkout
}

var live = &procs{cmds: map[*exec.Cmd]bool{}}

// tempDir creates a fresh directory under <root>/.bench_build/tmp.
func (p *procs) tempDir(prefix string) (string, error) {
	if err := os.MkdirAll(p.base, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(p.base, prefix+"-")
	if err != nil {
		return "", err
	}
	p.mu.Lock()
	p.dirs = append(p.dirs, dir)
	p.mu.Unlock()
	return dir, nil
}

func (p *procs) start(cmd *exec.Cmd) error {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := cmd.Start(); err != nil {
		return err
	}
	p.cmds[cmd] = true
	return nil
}

func (p *procs) forget(cmd *exec.Cmd) {
	p.mu.Lock()
	delete(p.cmds, cmd)
	p.mu.Unlock()
}

// cleanup kills whatever is still running and removes every temp dir.
func (p *procs) cleanup() {
	p.mu.Lock()
	cmds := p.cmds
	dirs := p.dirs
	p.cmds, p.dirs = map[*exec.Cmd]bool{}, nil
	p.mu.Unlock()
	for c := range cmds {
		_ = c.Process.Kill() // already-exited processes report an error we do not need
	}
	for _, d := range dirs {
		_ = os.RemoveAll(d) // best effort: the directory is under .bench_build, which is ignored
	}
}

// onSignal tears everything down when the driver is interrupted.
func (p *procs) onSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		p.cleanup()
		os.Exit(130)
	}()
}

// freePort asks the kernel for an unused loopback port. muontrapd logs the
// -addr flag it was given, not the port it bound, so the driver must
// choose the port itself.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// daemon is one running muontrapd.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	logf   string
	exited chan struct{} // closed once Wait returned
	bootS  float64       // spawn to first healthy /v1/healthz
}

// startDaemon launches muontrapd on a driver-chosen loopback port and
// waits until /v1/healthz answers; "{addr}" in an argument stands for the
// chosen host:port. The port is free when chosen but not reserved, so a
// lost race (the daemon exits at once) is retried.
func startDaemon(ctx context.Context, bin, logDir, name string, args ...string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		logf := filepath.Join(logDir, name+".log")
		out, err := os.Create(logf)
		if err != nil {
			return nil, err
		}
		argv := []string{"-addr", addr}
		for _, a := range args {
			argv = append(argv, strings.ReplaceAll(a, "{addr}", addr))
		}
		cmd := exec.Command(bin, argv...)
		cmd.Stdout, cmd.Stderr = out, out
		t0 := time.Now()
		err = live.start(cmd)
		out.Close() // the child holds its own descriptor
		if err != nil {
			return nil, fmt.Errorf("starting %s: %w", name, err)
		}
		d := &daemon{cmd: cmd, url: "http://" + addr, logf: logf, exited: make(chan struct{})}
		go func() {
			_ = cmd.Wait() // exit status is read from cmd.ProcessState
			close(d.exited)
		}()
		if err := d.waitHealthy(ctx, 15*time.Second); err != nil {
			d.stop()
			lastErr = fmt.Errorf("%s: %w", name, err)
			continue
		}
		d.bootS = time.Since(t0).Seconds()
		return d, nil
	}
	return nil, lastErr
}

// waitHealthy polls /v1/healthz until it answers 200.
func (d *daemon) waitHealthy(ctx context.Context, timeout time.Duration) error {
	_, err := pollJSON(ctx, d, "/v1/healthz", timeout, func([]byte) bool { return true })
	return err
}

// pollJSON GETs path every few milliseconds until ok accepts the body,
// the daemon exits, or the timeout passes. It returns the accepted body.
func pollJSON(ctx context.Context, d *daemon, path string, timeout time.Duration, ok func([]byte) bool) ([]byte, error) {
	deadline := time.Now().Add(timeout)
	for {
		body, err := httpGet(ctx, d.url+path, time.Second)
		if err == nil && ok(body) {
			return body, nil
		}
		select {
		case <-d.exited:
			tail, _ := os.ReadFile(d.logf)
			return nil, fmt.Errorf("daemon exited before %s was ready: %s", path, bytes.TrimSpace(tail))
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s not ready after %s (last error: %v)", path, timeout, err)
		}
	}
}

var httpClient = &http.Client{}

func httpGet(ctx context.Context, url string, timeout time.Duration) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return buf.Bytes(), nil
}

// stop asks the daemon to shut down, kills it if it does not within three
// seconds, and returns its resource usage.
func (d *daemon) stop() usage {
	peak := peakRSSMB(d.cmd.Process.Pid)
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only when the process is already gone
	select {
	case <-d.exited:
	case <-time.After(3 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	live.forget(d.cmd)
	return usage{CPUS: cpuSeconds(d.cmd.ProcessState), PeakRSSMB: peak}
}

// usage is what the kernel accounted to one process.
type usage struct {
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// cpuSeconds is the user plus system time of a finished process and of
// every descendant it waited for.
func cpuSeconds(st *os.ProcessState) float64 {
	if st == nil {
		return 0
	}
	return st.UserTime().Seconds() + st.SystemTime().Seconds()
}

// peakRSSMB reads a live process's resident-set high-water mark (VmHWM) from
// /proc; 0 when it cannot. wait4's ru_maxrss will not do: Go starts children
// with a vfork-style clone, and Linux then seeds the child's maximum with the
// RSS of the process that spawned it, so a small child of a large parent
// reports its parent.
func peakRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// selfExe, when set, is the driver binary that child modes re-execute.
// Tests set it: under go test, os.Executable is the test binary.
var selfExe string

// runChild re-executes the benchmark binary in a child mode with input
// written to a spec file, and decodes the JSON document the child prints
// as its last stdout line into out. A cold iteration is always a fresh
// child: the simulator's process-global run cache starts empty, as it
// does for a cmd/figures user, and peak RSS is the child's own.
func runChild(ctx context.Context, kind string, input, out any, env []string, timeout time.Duration) (cpuS, wallS float64, err error) {
	dir, err := live.tempDir("child")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	specFile := filepath.Join(dir, "spec.json")
	b, err := json.Marshal(input)
	if err != nil {
		return 0, 0, err
	}
	if err := os.WriteFile(specFile, b, 0o644); err != nil {
		return 0, 0, err
	}
	self := selfExe
	if self == "" {
		if self, err = os.Executable(); err != nil {
			return 0, 0, err
		}
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	cmd := exec.Command(self, "-child", kind, "-spec", specFile)
	cmd.Env = append(os.Environ(), env...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	t0 := time.Now()
	if err := live.start(cmd); err != nil {
		return 0, 0, err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err = <-done:
	case <-ctx.Done():
		_ = cmd.Process.Kill()
		<-done
		err = fmt.Errorf("timed out after %s", timeout)
	}
	wall := time.Since(t0).Seconds()
	live.forget(cmd)
	if err != nil {
		return 0, wall, fmt.Errorf("child %s: %w", kind, err)
	}
	line := bytes.TrimSpace(stdout.Bytes())
	if i := bytes.LastIndexByte(line, '\n'); i >= 0 {
		line = line[i+1:]
	}
	if out != nil {
		if err := json.Unmarshal(line, out); err != nil {
			return 0, wall, fmt.Errorf("child %s: decoding report: %w", kind, err)
		}
	}
	return cpuSeconds(cmd.ProcessState), wall, nil
}

// readSpec loads a child's input.
func readSpec(path string, into any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, into)
}

// daemonBinary returns the muontrapd built by bench/run.sh, building it
// when the driver was started another way (go run, go test).
func daemonBinary(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "muontrapd")
	if os.Getenv("BENCH_BUILD_MS") != "" {
		return bin, nil // run.sh just built it
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/muontrapd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building muontrapd: %v: %s", err, bytes.TrimSpace(out))
	}
	return bin, nil
}
