package fleet

import (
	"fmt"
	"net/http"

	"repro/internal/checkpoint"
	"repro/internal/service"
)

// The coordinator's HTTP surface is its job plane's — the /v1 API of
// internal/service, served by the same handlers a lone daemon runs, so
// muontrap/client drives a fleet and a daemon with the same code — plus
// the routes mounted here:
//
//	GET    /v1/healthz           liveness + fleet Stats + plane Stats → 200
//	POST   /fleet/v1/register    worker joins              → 200 {"worker_id": ...}
//	POST   /fleet/v1/heartbeat   worker liveness           → 204 | 404 (re-register)
//	GET    /fleet/v1/workers     registry snapshot         → 200 {"workers": [WorkerStatus]}
//	       /fleet/v1/store/...   shared checkpoint store   (checkpoint.StoreHandler)
//
// These stay open when the plane runs with tenants: workers and probes
// carry no API key.

// maxBodyBytes bounds the control-plane responses an Agent reads.
const maxBodyBytes = 1 << 20

// ServeHTTP makes the Coordinator mountable directly into any
// http.Server.
func (co *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { co.mux.ServeHTTP(w, r) }

// planeStats names the plane's half of the health payload: two embedded
// fields cannot both be called Stats.
type planeStats = service.Stats

// healthResponse is a daemon's healthz shape — one flat object — with the
// fleet's counters beside the plane's.
type healthResponse struct {
	Status string `json:"status"`
	Stats
	planeStats
}

func (co *Coordinator) routes() {
	mux := http.NewServeMux()
	mux.Handle("GET /v1/healthz", service.Endpoint(func([]byte) (any, error) {
		return healthResponse{"ok", co.Stats(), co.plane.Stats()}, nil
	}))
	mux.Handle("POST /fleet/v1/register", service.Endpoint(func(body []byte) (any, error) {
		req, err := DecodeRegisterRequest(body)
		if err != nil {
			return nil, err
		}
		return co.register(req), nil
	}))
	mux.Handle("POST /fleet/v1/heartbeat", service.Endpoint(func(body []byte) (any, error) {
		req, err := DecodeHeartbeatRequest(body)
		if err != nil {
			return nil, err
		}
		if !co.heartbeat(req) {
			return nil, &service.NotFoundError{
				Code: "unknown_worker",
				Msg:  fmt.Sprintf("worker %q is not registered (or was marked dead); re-register", req.WorkerID),
			}
		}
		return nil, nil
	}))
	mux.Handle("GET /fleet/v1/workers", service.Endpoint(func([]byte) (any, error) {
		return map[string][]WorkerStatus{"workers": co.Workers()}, nil
	}))
	if co.store != nil {
		mux.Handle(StorePath+"/", http.StripPrefix(StorePath, checkpoint.StoreHandler(co.store)))
	}
	mux.Handle("/", co.plane)
	co.mux = mux
}
