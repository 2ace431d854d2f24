package client_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/service"
	"repro/muontrap"
	"repro/muontrap/client"
)

// instant is a Backend that finishes every attempt at once, with one
// empty run per cell.
type instant struct{}

func (instant) Run(_ context.Context, job muontrap.Job, _ bool, progress func(muontrap.Progress)) (*muontrap.SweepResult, error) {
	res := &muontrap.SweepResult{Runs: make([]muontrap.RunResult, job.Total)}
	for i := range res.Runs {
		progress(muontrap.Progress{Done: i + 1, Total: job.Total, Run: res.Runs[i]})
	}
	return res, nil
}

// TestClientReusesConnection: a streamed job's response is read to its
// end, so Submit → Stream → Result, repeated on one Client, keeps one
// keep-alive connection instead of dialling after every stream.
func TestClientReusesConnection(t *testing.T) {
	srv, err := service.New(service.Config{Backend: instant{}})
	if err != nil {
		t.Fatal(err)
	}
	var dials atomic.Int32
	hs := httptest.NewUnstartedServer(srv)
	hs.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	hs.Start()
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	c := client.New(hs.URL, client.WithHTTPClient(&http.Client{Transport: &http.Transport{}}))
	ctx := context.Background()
	for i := range 5 {
		job, err := c.Submit(ctx, muontrap.Sweep{
			Workloads: []muontrap.Workload{"hmmer"},
			Schemes:   []muontrap.Scheme{"insecure", "muontrap"},
			Scales:    []float64{0.01 + float64(i)/1000},
		})
		if err != nil {
			t.Fatal(err)
		}
		if final, err := c.Stream(ctx, job.ID, nil); err != nil || final.State != muontrap.JobDone {
			t.Fatalf("job %d ended %+v, err %v", i, final, err)
		}
		if _, err := c.Result(ctx, job.ID); err != nil {
			t.Fatal(err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("5 submit/stream/result rounds opened %d connections, want 1", n)
	}
}

// TestStreamDecodesLargeFrame: a progress frame far larger than the
// scanner's starting buffer still decodes whole.
func TestStreamDecodesLargeFrame(t *testing.T) {
	big := strings.Repeat("w", 100*1024)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		p, _ := json.Marshal(muontrap.Progress{Done: 1, Total: 1, Run: muontrap.RunResult{Workload: muontrap.Workload(big)}})
		j, _ := json.Marshal(muontrap.Job{ID: "job-1", State: muontrap.JobDone, Done: 1, Total: 1})
		fmt.Fprintf(w, "id: 1\nevent: progress\ndata: %s\n\nevent: done\ndata: %s\n\n", p, j)
	}))
	defer hs.Close()
	var got []muontrap.Progress
	final, err := client.New(hs.URL).Stream(context.Background(), "job-1", func(p muontrap.Progress) {
		got = append(got, p)
	})
	if err != nil || final.State != muontrap.JobDone {
		t.Fatalf("stream ended %+v, err %v", final, err)
	}
	if len(got) != 1 || string(got[0].Run.Workload) != big {
		t.Fatalf("got %d progress frames; want 1 carrying the %d-byte workload name", len(got), len(big))
	}
}
