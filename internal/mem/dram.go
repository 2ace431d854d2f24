package mem

import "repro/internal/event"

// DRAMConfig models a DDR3-1600 11-11-11 part as seen from a 2GHz core
// (paper Table 1). Latencies are in core cycles.
type DRAMConfig struct {
	// RowHitLatency is the access latency when the request hits the
	// currently open row of its bank.
	RowHitLatency event.Cycle
	// RowMissLatency is the access latency when the bank must precharge
	// and activate a new row.
	RowMissLatency event.Cycle
	// Banks is the number of independent DRAM banks.
	Banks int
	// BurstGap is the minimum data-bus gap between bursts, limiting
	// bandwidth across all banks.
	BurstGap event.Cycle
	// RowBytes is the size of a DRAM row per bank.
	RowBytes uint64
}

// DefaultDRAMConfig corresponds to DDR3-1600 11-11-11-28 at 800MHz driving
// a 2GHz core: tCAS ≈ 13.75ns ≈ 28 core cycles; a full
// precharge+activate+CAS row miss ≈ 41ns ≈ 83 core cycles; 8 banks; one
// 64-byte burst every 5ns ≈ 10 core cycles of data bus occupancy.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{
		RowHitLatency:  28,
		RowMissLatency: 83,
		Banks:          8,
		BurstGap:       10,
		RowBytes:       8192,
	}
}

// DRAM is a bank-aware open-row latency model. It is intentionally simpler
// than a full DDR controller: per-bank open-row tracking plus a shared
// data-bus serialisation constraint capture the first-order queueing and
// locality behaviour the evaluation needs.
type DRAM struct {
	cfg      DRAMConfig
	sched    *event.Scheduler
	openRow  []uint64
	hasRow   []bool
	bankFree []event.Cycle
	busFree  event.Cycle
}

// NewDRAM builds a DRAM model on the given scheduler.
func NewDRAM(sched *event.Scheduler, cfg DRAMConfig) *DRAM {
	if cfg.Banks <= 0 {
		cfg.Banks = 1
	}
	return &DRAM{
		cfg:      cfg,
		sched:    sched,
		openRow:  make([]uint64, cfg.Banks),
		hasRow:   make([]bool, cfg.Banks),
		bankFree: make([]event.Cycle, cfg.Banks),
	}
}

func (d *DRAM) bankOf(a Addr) int {
	// Interleave banks on line granularity.
	return int(uint64(a) >> LineShift % uint64(d.cfg.Banks))
}

func (d *DRAM) rowOf(a Addr) uint64 {
	return uint64(a) / d.cfg.RowBytes
}

// Access issues a line read or write to DRAM and returns the cycle at which
// the data is available. Timing state (open rows, bank/bus occupancy) is
// updated; the caller schedules its own completion event.
func (d *DRAM) Access(a Addr) event.Cycle {
	now := d.sched.Now()
	bank := d.bankOf(a)
	row := d.rowOf(a)

	start := now
	if d.bankFree[bank] > start {
		start = d.bankFree[bank]
	}
	if d.busFree > start {
		start = d.busFree
	}

	var lat event.Cycle
	if d.hasRow[bank] && d.openRow[bank] == row {
		lat = d.cfg.RowHitLatency
	} else {
		lat = d.cfg.RowMissLatency
		d.openRow[bank] = row
		d.hasRow[bank] = true
	}

	done := start + lat
	d.bankFree[bank] = done
	d.busFree = start + d.cfg.BurstGap
	return done
}
