package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/muontrap"
)

// instant is a Backend that finishes every attempt at once.
type instant struct{}

func (instant) Run(_ context.Context, job muontrap.Job, _ bool, _ func(muontrap.Progress)) (*muontrap.SweepResult, error) {
	return &muontrap.SweepResult{Runs: make([]muontrap.RunResult, job.Total)}, nil
}

// oneCell is a one-cell sweep whose cache key differs for each i.
func oneCell(i int) muontrap.Sweep {
	return muontrap.Sweep{
		Workloads: []muontrap.Workload{"hmmer"},
		Schemes:   []muontrap.Scheme{"insecure"},
		Scales:    []float64{0.01 + float64(i)/10000},
	}
}

// record renders one journal line.
func record(t testing.TB, version int, rec muontrap.Job) []byte {
	t.Helper()
	b, err := json.Marshal(jobEntry{Version: version, Job: rec})
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// journalPath is the journal under dir.
func journalPath(dir string) string { return filepath.Join(dir, "service", journalName) }

// writeJournal replaces the journal under dir with b.
func writeJournal(t *testing.T, dir string, b []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(journalPath(dir)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journalPath(dir), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// loaded opens a server over dir and returns its job table in listing
// order.
func loaded(t *testing.T, dir string) ([]muontrap.Job, *Server) {
	t.Helper()
	s, err := New(Config{Dir: dir, Backend: instant{}})
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var recs []muontrap.Job
	for _, id := range s.order {
		recs = append(recs, s.jobs[id].snapshot())
	}
	return recs, s
}

// TestJournalLastRecordWins: a job journaled several times loads as its
// last record; a job whose last record is queued or running loads as
// interrupted with its progress reset; the table lists by submission
// time.
func TestJournalLastRecordWins(t *testing.T) {
	dir := t.TempDir()
	a := muontrap.Job{ID: "job-a", State: muontrap.JobQueued, SubmittedAt: "2026-01-01T00:00:02Z", Total: 2}
	b := muontrap.Job{ID: "job-b", State: muontrap.JobQueued, SubmittedAt: "2026-01-01T00:00:01Z", Total: 2}
	var log []byte
	log = append(log, record(t, journalVersion, a)...)
	log = append(log, record(t, journalVersion, b)...)
	a.State, a.Done = muontrap.JobRunning, 1
	b.State, b.Done = muontrap.JobRunning, 1
	log = append(log, record(t, journalVersion, a)...)
	log = append(log, record(t, journalVersion, b)...)
	a.State, a.Done, a.FinishedAt = muontrap.JobDone, 2, "2026-01-01T00:00:03Z"
	log = append(log, record(t, journalVersion, a)...)
	writeJournal(t, dir, log)

	recs, s := loaded(t, dir)
	defer s.Close()
	if len(recs) != 2 || recs[0].ID != "job-b" || recs[1].ID != "job-a" {
		t.Fatalf("loaded %+v, want job-b then job-a", recs)
	}
	if recs[0].State != muontrap.JobInterrupted || recs[0].Done != 0 {
		t.Errorf("job-b loaded %s with done %d, want interrupted with done 0", recs[0].State, recs[0].Done)
	}
	if recs[1].State != muontrap.JobDone || recs[1].Done != 2 || recs[1].FinishedAt == "" {
		t.Errorf("job-a loaded %+v, want its done record", recs[1])
	}
}

// TestJournalTornLastLine: a record torn by a crash is skipped, the
// records before it load, and the first append after the restart starts
// a line of its own, so the torn bytes swallow nothing.
func TestJournalTornLastLine(t *testing.T) {
	dir := t.TempDir()
	a := muontrap.Job{ID: "job-a", State: muontrap.JobFailed, SubmittedAt: "2026-01-01T00:00:01Z", Error: "boom"}
	torn := record(t, journalVersion, muontrap.Job{ID: "job-torn", State: muontrap.JobQueued})
	writeJournal(t, dir, append(record(t, journalVersion, a), torn[:len(torn)/2]...))

	recs, s := loaded(t, dir)
	if len(recs) != 1 || recs[0].ID != "job-a" || recs[0].State != muontrap.JobFailed {
		t.Fatalf("loaded %+v, want job-a failed alone", recs)
	}
	job, _, err := s.submit(oneCell(0), muontrap.PriorityBulk, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, job.ID, muontrap.JobDone)
	s.Close()

	b, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(b, []byte{'\n'}), []byte{'\n'})
	if len(lines) < 3 || !bytes.Equal(lines[1], torn[:len(torn)/2]) {
		t.Fatalf("journal after restart:\n%s\nwant the torn record alone on line 2", b)
	}
	recs, s = loaded(t, dir)
	defer s.Close()
	if len(recs) != 2 || recs[1].ID != job.ID || recs[1].State != muontrap.JobDone {
		t.Fatalf("reloaded %+v, want job-a and the new job done", recs)
	}
}

// TestJournalSkipsForeignVersion: a record of another journal version is
// skipped; the records around it load.
func TestJournalSkipsForeignVersion(t *testing.T) {
	dir := t.TempDir()
	a := muontrap.Job{ID: "job-a", State: muontrap.JobCancelled, SubmittedAt: "2026-01-01T00:00:01Z"}
	c := muontrap.Job{ID: "job-c", State: muontrap.JobCancelled, SubmittedAt: "2026-01-01T00:00:03Z"}
	var log []byte
	log = append(log, record(t, journalVersion, a)...)
	log = append(log, record(t, journalVersion+1, muontrap.Job{ID: "job-b", State: muontrap.JobDone})...)
	log = append(log, record(t, journalVersion, c)...)
	writeJournal(t, dir, log)

	recs, s := loaded(t, dir)
	defer s.Close()
	if len(recs) != 2 || recs[0].ID != "job-a" || recs[1].ID != "job-c" {
		t.Fatalf("loaded %+v, want job-a and job-c", recs)
	}
}

// TestJournalRecordsLandInStateOrder: with a Backend that finishes at
// once, a submit-path record races the worker's running and done
// records. Every job's last record must still be its terminal one.
func TestJournalRecordsLandInStateOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir, Backend: instant{}})
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 4, 25
	ids := make(chan string, clients*perClient)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perClient {
				job, _, err := s.submit(oneCell(c*perClient+i), muontrap.PriorityBulk, nil, false)
				if err != nil {
					t.Error(err)
					return
				}
				ids <- job.ID
			}
		}()
	}
	wg.Wait()
	close(ids)
	for id := range ids {
		waitState(t, s, id, muontrap.JobDone)
	}
	s.Close()

	recs, s2 := loaded(t, dir)
	defer s2.Close()
	if len(recs) != clients*perClient {
		t.Fatalf("reloaded %d jobs, want %d", len(recs), clients*perClient)
	}
	for _, rec := range recs {
		if rec.State != muontrap.JobDone {
			t.Errorf("job %s reloaded %s: an older record landed after its done record", rec.ID, rec.State)
		}
	}
}

// TestJournalIsOneFile: born-done resubmissions of a finished sweep
// append to the one journal and create no file, so the entries under
// Dir/service do not grow with their number.
func TestJournalIsOneFile(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir, Backend: instant{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	job, _, err := s.submit(oneCell(0), muontrap.PriorityBulk, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, job.ID, muontrap.JobDone)
	count := func() int {
		n := 0
		_ = filepath.WalkDir(filepath.Join(dir, "service"), func(string, fs.DirEntry, error) error {
			n++
			return nil
		})
		return n
	}
	before := count()
	for range 10 {
		if _, hit, err := s.submit(oneCell(0), muontrap.PriorityBulk, nil, false); err != nil || !hit {
			t.Fatalf("resubmission: hit %v, err %v; want born done", hit, err)
		}
	}
	if after := count(); after != before {
		t.Fatalf("10 born-done resubmissions took the entries under service/ from %d to %d", before, after)
	}
}

// waitState polls job id until it reaches want.
func waitState(t *testing.T, s *Server, id string, want muontrap.JobState) {
	t.Helper()
	j, err := s.lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for j.snapshot().State != want {
		if time.Now().After(deadline) {
			t.Fatalf("job %s is %s, want %s", id, j.snapshot().State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// FuzzJournalReplay: replaying arbitrary bytes never panics, loads one
// job per ID that some intact line records — as that ID's last intact
// record says, with queued and running derived to interrupted — and
// counts every other non-blank line as skipped.
func FuzzJournalReplay(f *testing.F) {
	good := record(f, journalVersion, muontrap.Job{ID: "job-a", State: muontrap.JobRunning, Done: 3, SubmittedAt: "2026-01-01T00:00:01Z"})
	done := record(f, journalVersion, muontrap.Job{ID: "job-a", State: muontrap.JobDone, Done: 4, Total: 4})
	f.Add([]byte{})
	f.Add(good)
	f.Add(append(append([]byte{}, good...), done...))
	f.Add(append(append([]byte{}, good...), done[:len(done)/2]...))
	f.Add(record(f, journalVersion+1, muontrap.Job{ID: "job-b"}))
	f.Add([]byte("\n\n{}\n{\"version\":1,\"job\":{\"id\":\"x\",\"state\":\"queued\"}}\r\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, skipped := replayJournal(b)
		want := map[string]muontrap.Job{}
		lines, intact := 0, 0
		for _, line := range bytes.Split(b, []byte{'\n'}) {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			lines++
			var e jobEntry
			if json.Unmarshal(line, &e) == nil && e.Version == journalVersion && e.Job.ID != "" {
				want[e.Job.ID] = e.Job
				intact++
			}
		}
		if len(recs) != len(want) {
			t.Fatalf("replay loaded %d jobs, the intact lines name %d", len(recs), len(want))
		}
		if intact+len(skipped) != lines {
			t.Fatalf("%d intact and %d skipped lines of %d non-blank", intact, len(skipped), lines)
		}
		for _, rec := range recs {
			w, ok := want[rec.ID]
			if !ok {
				t.Fatalf("replay loaded %q, which no intact line records", rec.ID)
			}
			switch w.State {
			case muontrap.JobQueued, muontrap.JobRunning:
				w.State = muontrap.JobInterrupted
				w.Done = 0
			case muontrap.JobInterrupted:
				w.Done = 0
			}
			if rec.State != w.State || rec.Done != w.Done || rec.SubmittedAt != w.SubmittedAt || rec.CacheKey != w.CacheKey {
				t.Fatalf("replay loaded %+v, the last intact record says %+v", rec, w)
			}
		}
	})
}
