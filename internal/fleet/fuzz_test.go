package fleet_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/fleet"
)

// FuzzWireDecode hammers the fleet's strict wire decoders — worker
// registration and heartbeat — with arbitrary bytes. The contract mirrors the snapshot decoder's
// FuzzDecode: hostile input must either decode cleanly or return an
// error (never panic, never silently zero-fill), and anything that
// decodes must survive a canonical round-trip — re-encoding and
// re-decoding yields the identical message.
func FuzzWireDecode(f *testing.F) {
	seed := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(fleet.RegisterRequest{Name: "worker-1", BaseURL: "http://10.0.0.2:7077"})
	seed(fleet.HeartbeatRequest{WorkerID: "w-0011223344"})
	// Well-formed messages of another protocol — the shard-map records a
	// coordinator journaled before cell results moved into the plane's
	// result store — are unknown fields to both decoders.
	f.Add([]byte(`{"key":"` + string(bytes.Repeat([]byte("a"), 64)) + `","sweep":{"workloads":["swaptions"],"schemes":["muontrap"],"scales":[0.02]},"indexes":[0,3],"done":true,"result":{"workload":"swaptions","scheme":"muontrap","scale":0.02,"cycles":123456}}`))
	f.Add([]byte(`{"key":"` + string(bytes.Repeat([]byte("f"), 64)) + `","sweep":{"workloads":["blackscholes"],"schemes":["stt-future"]},"indexes":[11],"done":false}`))
	// Hostile shapes: wrong types, unknown fields, trailing garbage,
	// truncations, invariant violations.
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"name": 3, "base_url": true}`))
	f.Add([]byte(`{"name":"x","base_url":"http://h","extra":1}`))
	f.Add([]byte(`{"worker_id":"w"}{"worker_id":"v"}`))
	f.Add([]byte(`{"key":"AAAA","indexes":[0],"done":false}`))
	f.Add([]byte(`{"key":"` + string(bytes.Repeat([]byte("a"), 64)) + `","indexes":[-1],"done":false}`))
	f.Add([]byte(`{"key":"` + string(bytes.Repeat([]byte("a"), 64)) + `","indexes":[0],"done":true}`))

	f.Fuzz(func(t *testing.T, b []byte) {
		if req, err := fleet.DecodeRegisterRequest(b); err == nil {
			roundTrip(t, "register", req, func(bb []byte) (any, error) { return fleet.DecodeRegisterRequest(bb) })
		}
		if req, err := fleet.DecodeHeartbeatRequest(b); err == nil {
			roundTrip(t, "heartbeat", req, func(bb []byte) (any, error) { return fleet.DecodeHeartbeatRequest(bb) })
		}
	})
}

// roundTrip asserts the canonical-form property: encode(decoded) must
// decode back to the identical message.
func roundTrip(t *testing.T, what string, v any, decode func([]byte) (any, error)) {
	t.Helper()
	enc, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%s: re-encoding a decoded message failed: %v", what, err)
	}
	again, err := decode(enc)
	if err != nil {
		t.Fatalf("%s: canonical re-encoding no longer decodes: %v\n%s", what, err, enc)
	}
	if !reflect.DeepEqual(v, again) {
		t.Fatalf("%s: round-trip changed the message:\nfirst:  %#v\nsecond: %#v", what, v, again)
	}
}
