package bpred

import (
	"encoding/binary"
	"testing"

	"repro/internal/checkpoint"
)

// The bytes a predictor saves beyond its dense tables: five u32 geometry
// words, rasTop, the global history and the mispredict count, plus the
// two sparse tables' counts; a local-history entry is its index and shift
// register, a BTB entry its index, tag and target.
const (
	fixedBytes     = 5*4 + 4 + 8 + 8 + 4 + 4
	localHistBytes = 4 + 8
	btbBytes       = 4 + 8 + 8
)

func save(p *Predictor) *checkpoint.Snapshot {
	s := checkpoint.New()
	s.Put("p", p.Checkpoint)
	return s
}

func predBytes(p *Predictor) string { return save(p).Hash() }

func TestPredictorSaveRestoreRoundTrip(t *testing.T) {
	a := New(DefaultConfig())
	// Train through both the speculative path and warm-up training.
	for i := 0; i < 200; i++ {
		pc := uint64(0x400000 + (i%13)*4)
		pr := a.PredictBranch(pc)
		a.Update(pc, pr, i%3 != 0, pc+64, true)
	}
	a.WarmCall(0x400100, 0x400104, 0x400800)
	a.WarmBranch(0x400200, true, 0x400300)
	a.WarmRet(0x400900, 0x400104)

	b := New(DefaultConfig())
	if err := save(a).Get("p", b.Checkpoint); err != nil {
		t.Fatal(err)
	}
	if predBytes(a) != predBytes(b) {
		t.Fatal("restored predictor differs")
	}
	// Behavioural check: same prediction for a trained branch.
	pa := a.PredictBranch(0x400004)
	pb := b.PredictBranch(0x400004)
	if pa.Taken != pb.Taken || pa.Target != pb.Target || pa.BTBHit != pb.BTBHit {
		t.Fatalf("prediction diverged: %+v vs %+v", pa, pb)
	}
}

func TestPredictorRestoreRejectsConfigMismatch(t *testing.T) {
	a := New(DefaultConfig())
	small := DefaultConfig()
	small.BTBEntries = 64
	b := New(small)
	if err := save(a).Get("p", b.Checkpoint); err == nil {
		t.Fatal("restore into mismatched config succeeded")
	}
}

// TestWarmBranchMatchesDetailedTraining verifies warm-up training leaves
// the predictor in the same state as the detailed predict/update pair for
// sequential (never-squashed) execution — the property that makes a warm
// snapshot equivalent to having trained the predictor in place.
func TestWarmBranchMatchesDetailedTraining(t *testing.T) {
	det := New(DefaultConfig())
	warm := New(DefaultConfig())
	outcomes := []bool{true, true, false, true, false, false, true, true}
	pc := uint64(0x400040)
	for _, taken := range outcomes {
		pr := det.PredictBranch(pc)
		if pr.Taken != taken {
			// Mispredicted: sequential architectural execution restores the
			// history the same way a squash would.
			det.Squash(pr, taken)
		}
		det.Update(pc, pr, taken, pc+128, true)
		warm.WarmBranch(pc, taken, pc+128)
	}
	dp := det.PredictBranch(pc)
	wp := warm.PredictBranch(pc)
	if dp.Taken != wp.Taken || dp.Target != wp.Target {
		t.Fatalf("training diverged: detailed %+v, warm %+v", dp, wp)
	}
}

// tinyConfig is a predictor small enough to forge payloads for.
func tinyConfig() Config {
	return Config{LocalEntries: 8, GlobalEntries: 8, ChooserEntries: 8, BTBEntries: 8, RASEntries: 4,
		LocalHistBits: 3, GlobalHistBits: 3}
}

// TestPredictorSaveTracksOccupancy: an untrained predictor saves to its
// fixed part and dense tables alone; each trained local history and each
// BTB entry adds a fixed number of bytes.
func TestPredictorSaveTracksOccupancy(t *testing.T) {
	p := New(DefaultConfig())
	empty := save(p).Len("p")
	if dense := fixedBytes + 2048 + 8192 + 2048 + 8*16; empty != dense {
		t.Fatalf("untrained predictor saves to %d bytes, want %d (no BTB or local-history bytes)", empty, dense)
	}
	p.WarmBranch(0x400200, true, 0x400300) // one local history, one BTB entry
	p.WarmJump(0x400204, 0x400400)         // one more BTB entry
	if want, got := empty+localHistBytes+2*btbBytes, save(p).Len("p"); got != want {
		t.Fatalf("saved %d bytes, want %d", got, want)
	}
}

// sparse is one forged sparse table: the count it claims and its
// (index, value) entries.
type sparse struct {
	count uint32
	ents  [][2]uint64
}

// forgePredictor writes a tinyConfig payload with the given RAS top,
// local-history table and BTB (whose target is its tag + 64).
func forgePredictor(rasTop uint32, hist, btb sparse) *checkpoint.Snapshot {
	le := binary.LittleEndian
	var b []byte
	for _, n := range []uint32{8, 8, 8, 8, 4} {
		b = le.AppendUint32(b, n)
	}
	b = le.AppendUint64(b, 5) // globalHist
	b = le.AppendUint32(b, rasTop)
	b = le.AppendUint64(b, 3)             // DirMispred
	b = append(b, make([]byte, 8+8+8)...) // counter tables
	for i := 0; i < 4; i++ {
		b = le.AppendUint64(b, 0) // RAS
	}
	b = le.AppendUint32(b, hist.count)
	for _, e := range hist.ents {
		b = le.AppendUint64(le.AppendUint32(b, uint32(e[0])), e[1])
	}
	b = le.AppendUint32(b, btb.count)
	for _, e := range btb.ents {
		target := uint64(0)
		if e[1] != 0 {
			target = e[1] + 64
		}
		b = le.AppendUint64(le.AppendUint64(le.AppendUint32(b, uint32(e[0])), e[1]), target)
	}
	snap := checkpoint.New()
	snap.Put("p", func(s *checkpoint.State) { checkpoint.Raw(s, b) })
	return snap
}

// TestPredictorRestoreRejectsCorruptEntries: the sparse tables' indices
// (and the RAS top) come from the file and address the predictor's
// arrays, so every malformed table must be refused.
func TestPredictorRestoreRejectsCorruptEntries(t *testing.T) {
	none := sparse{}
	good := sparse{2, [][2]uint64{{1, 0x400004}, {7, 0x40001c}}}
	ok := New(tinyConfig())
	ok.WarmJump(0x400010, 0x400800) // BTB slot 4: stale content a restore must clear
	if err := forgePredictor(3, good, good).Get("p", ok.Checkpoint); err != nil {
		t.Fatalf("well-formed payload rejected: %v", err)
	}
	if ok.btbTags[4] != 0 || ok.btbTags[7] != 0x40001c || ok.localHist[1] != 0x400004 {
		t.Fatal("restore did not leave exactly the saved entries")
	}
	for name, snap := range map[string]*checkpoint.Snapshot{
		"RAS top beyond the stack":   forgePredictor(4, none, none),
		"history count above table":  forgePredictor(0, sparse{9, nil}, none),
		"history count beyond bytes": forgePredictor(0, sparse{2, good.ents[:1]}, none),
		"history index at capacity":  forgePredictor(0, sparse{1, [][2]uint64{{8, 1}}}, none),
		"history descending":         forgePredictor(0, sparse{2, [][2]uint64{{5, 1}, {2, 1}}}, none),
		"history duplicate":          forgePredictor(0, sparse{2, [][2]uint64{{5, 1}, {5, 2}}}, none),
		"history saved empty":        forgePredictor(0, sparse{1, [][2]uint64{{5, 0}}}, none),
		"BTB count above table":      forgePredictor(0, none, sparse{9, nil}),
		"BTB index at capacity":      forgePredictor(0, none, sparse{1, [][2]uint64{{8, 0x400000}}}),
		"BTB descending":             forgePredictor(0, none, sparse{2, [][2]uint64{{5, 0x400014}, {2, 0x400008}}}),
		"BTB duplicate":              forgePredictor(0, none, sparse{2, [][2]uint64{{5, 0x400014}, {5, 0x400014}}}),
		"BTB entry saved empty":      forgePredictor(0, none, sparse{1, [][2]uint64{{5, 0}}}),
	} {
		if err := snap.Get("p", New(tinyConfig()).Checkpoint); err == nil {
			t.Errorf("%s: restore succeeded", name)
		}
	}
}
