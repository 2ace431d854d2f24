package bpred

import (
	"testing"

	"repro/internal/checkpoint"
)

func predBytes(p *Predictor) string {
	s := checkpoint.New()
	p.Save(s.Section("p"))
	return s.Hash()
}

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

	snap := checkpoint.New()
	a.Save(snap.Section("p"))
	b := New(DefaultConfig())
	r, _ := snap.Open("p")
	if err := b.Restore(r); err != nil {
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
	snap := checkpoint.New()
	a.Save(snap.Section("p"))
	small := DefaultConfig()
	small.BTBEntries = 64
	b := New(small)
	r, _ := snap.Open("p")
	if err := b.Restore(r); err == nil {
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
	empty := p.SaveSize()
	if dense := fixedSaveBytes + 2048 + 8192 + 2048 + 8*16; empty != dense {
		t.Fatalf("untrained predictor saves to %d bytes, want %d (no BTB or local-history bytes)", empty, dense)
	}
	p.WarmBranch(0x400200, true, 0x400300) // one local history, one BTB entry
	p.WarmJump(0x400204, 0x400400)         // one more BTB entry
	snap := checkpoint.New()
	w := snap.Section("p")
	p.Save(w)
	if want := empty + localHistSaveBytes + 2*btbSaveBytes; w.Len() != want || p.SaveSize() != want {
		t.Fatalf("Save wrote %d, SaveSize %d, want %d", w.Len(), p.SaveSize(), want)
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
func forgePredictor(rasTop uint32, hist, btb sparse) *checkpoint.Reader {
	snap := checkpoint.New()
	w := snap.Section("p")
	for _, n := range []uint32{8, 8, 8, 8, 4} {
		w.U32(n)
	}
	w.U64(5) // globalHist
	w.U32(rasTop)
	w.U64(3)         // DirMispred
	w.Raw(8 + 8 + 8) // counter tables
	for i := 0; i < 4; i++ {
		w.U64(0) // RAS
	}
	w.U32(hist.count)
	for _, e := range hist.ents {
		w.U32(uint32(e[0]))
		w.U64(e[1])
	}
	w.U32(btb.count)
	for _, e := range btb.ents {
		w.U32(uint32(e[0]))
		w.U64(e[1])
		if e[1] != 0 {
			w.U64(e[1] + 64)
		} else {
			w.U64(0)
		}
	}
	r, _ := snap.Open("p")
	return r
}

// TestPredictorRestoreRejectsCorruptEntries: the sparse tables' indices
// (and the RAS top) come from the file and address the predictor's
// arrays, so every malformed table must be refused.
func TestPredictorRestoreRejectsCorruptEntries(t *testing.T) {
	none := sparse{}
	good := sparse{2, [][2]uint64{{1, 0x400004}, {7, 0x40001c}}}
	ok := New(tinyConfig())
	ok.WarmJump(0x400010, 0x400800) // BTB slot 4: stale content a restore must clear
	if err := ok.Restore(forgePredictor(3, good, good)); err != nil {
		t.Fatalf("well-formed payload rejected: %v", err)
	}
	if ok.btbTags[4] != 0 || ok.btbTags[7] != 0x40001c || ok.localHist[1] != 0x400004 {
		t.Fatal("restore did not leave exactly the saved entries")
	}
	for name, r := range map[string]*checkpoint.Reader{
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
		if err := New(tinyConfig()).Restore(r); err == nil {
			t.Errorf("%s: restore succeeded", name)
		}
	}
}
