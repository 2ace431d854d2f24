package cpu

import "repro/internal/event"

// Defense selects the pipeline-level defense model (see defenses for what
// each one is). MuonTrap and the unprotected baseline share DefenseNone
// here: MuonTrap's mechanisms are configured in the memory system.
type Defense uint8

// Pipeline defense models.
const (
	DefenseNone Defense = iota
	DefenseInvisiSpecSpectre
	DefenseInvisiSpecFuture
	DefenseSTTSpectre
	DefenseSTTFuture
	DefenseSafeBet
)

// policy is a pipeline defense as two orthogonal choices: when a load stops
// being speculative, and what a load does until then. NewCore resolves
// Config.Defense to one, and each pipeline stage consults it at one site.
type policy struct {
	safe   safeRule
	unsafe unsafeAction
}

// safeRule is when a load is safe (loadSafe).
type safeRule uint8

const (
	safeAlways       safeRule = iota
	safeBranches              // every older branch has resolved
	safeUnsquashable          // every older instruction has executed
)

// unsafeAction is what a load does while it is not safe.
type unsafeAction uint8

const (
	proceed   unsafeAction = iota // access the memory system as usual
	expose                        // read invisibly; expose once safe, or at commit without holding it
	validate                      // read invisibly; expose at the ROB head, holding commit
	taint                         // access as usual; dependent transmitters wait until it is safe
	footprint                     // stall unless the line is in the committed footprint
)

// defenses is the one table from a Defense to its name and policy; a value
// outside it runs as DefenseNone.
var defenses = [...]struct {
	name string
	pol  policy
}{
	DefenseNone:              {"none", policy{safeAlways, proceed}},
	DefenseInvisiSpecSpectre: {"invisispec-spectre", policy{safeBranches, expose}},
	DefenseInvisiSpecFuture:  {"invisispec-future", policy{safeUnsquashable, validate}},
	DefenseSTTSpectre:        {"stt-spectre", policy{safeBranches, taint}},
	DefenseSTTFuture:         {"stt-future", policy{safeUnsquashable, taint}},
	DefenseSafeBet:           {"safebet", policy{safeBranches, footprint}},
}

func (d Defense) String() string {
	if int(d) < len(defenses) {
		return defenses[d].name
	}
	return "unknown"
}

// Config sizes the core.
type Config struct {
	FetchWidth  int
	CommitWidth int
	IssueWidth  int

	ROBSize int
	IQSize  int
	LQSize  int
	SQSize  int

	IntALUs int
	FPALUs  int
	MulDivs int

	IntALULat event.Cycle
	FPALULat  event.Cycle
	MulLat    event.Cycle
	DivLat    event.Cycle

	// FrontendDelay is the fetch-to-issue depth of the pipeline, which
	// sets the branch misprediction penalty.
	FrontendDelay event.Cycle
	// RedirectPenalty is the extra bubble after a squash before fetch
	// resumes.
	RedirectPenalty event.Cycle

	StoreBufferSize   int
	MaxDrainsInFlight int

	// SyscallCost models kernel entry/exit plus the short syscall body,
	// charged at commit of every OpSyscall in all configurations.
	SyscallCost event.Cycle

	Defense Defense
}

// DefaultConfig matches the paper's Table 1 core.
func DefaultConfig() Config {
	return Config{
		FetchWidth:  8,
		CommitWidth: 8,
		IssueWidth:  8,

		ROBSize: 192,
		IQSize:  64,
		LQSize:  32,
		SQSize:  32,

		IntALUs: 6,
		FPALUs:  4,
		MulDivs: 2,

		IntALULat: 1,
		FPALULat:  3,
		MulLat:    4,
		DivLat:    12,

		FrontendDelay:   8,
		RedirectPenalty: 2,

		StoreBufferSize:   16,
		MaxDrainsInFlight: 2,

		SyscallCost: 400,

		Defense: DefenseNone,
	}
}
