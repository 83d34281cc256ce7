package storage

import (
	"math/rand"
	"sync"
	"sync/atomic"
)

// FaultOp names a disk-manager call site for fault scheduling.
type FaultOp int

// Call sites faults can target.
const (
	FaultRead FaultOp = iota
	FaultWrite
	FaultSync
	FaultAlloc
	numFaultOps
)

func (op FaultOp) String() string {
	switch op {
	case FaultRead:
		return "read"
	case FaultWrite:
		return "write"
	case FaultSync:
		return "sync"
	case FaultAlloc:
		return "alloc"
	default:
		return "?"
	}
}

// FaultKind classifies what an injected fault does.
type FaultKind int

// Fault kinds.
const (
	// FaultTransient fails this one call with ErrInjectedIO; the next
	// call proceeds (unless scheduled again).
	FaultTransient FaultKind = iota
	// FaultPermanent fails this call and every later call to the same
	// op with ErrInjectedPermanentIO.
	FaultPermanent
	// FaultNoSpace fails write/alloc calls with ErrNoSpace, permanently.
	FaultNoSpace
	// FaultShortRead zeroes the tail of the page and returns
	// ErrShortRead (reads only).
	FaultShortRead
	// FaultTorn lands the first TornBytes bytes of the page on disk,
	// leaves the rest at its previous contents, and reports
	// ErrInjectedIO (writes only) — the classic torn page.
	FaultTorn
)

// FaultRule schedules one fault: fire Kind on the Nth (1-based) call to
// Op. TornBytes is how many bytes of the new page land for FaultTorn
// (defaults to half a page when 0).
type FaultRule struct {
	Op        FaultOp
	Kind      FaultKind
	Nth       int64
	TornBytes int
}

// FaultCounters exposes how many faults of each flavor were injected —
// sampled into obs so a torture run can assert injection actually
// happened.
type FaultCounters struct {
	Transient  int64
	Permanent  int64
	NoSpace    int64
	ShortReads int64
	TornWrites int64
}

// FaultDiskManager wraps any DiskManager and injects deterministic,
// seed-driven I/O faults: transient and permanent read/write/fsync
// errors, short reads, torn page writes, and ENOSPC. Two mechanisms
// compose:
//
//   - probabilities: each armed call to an op rolls the seeded RNG
//     against that op's probability and fails transiently on a hit;
//   - rules: "fail the Nth read with kind K" schedules, exact and
//     deterministic regardless of the probabilistic stream.
//
// The same seed over the same call sequence injects the same faults —
// a failing torture run replays exactly. Disarm() makes the wrapper
// transparent (recovery runs clean after a torn-write crash).
type FaultDiskManager struct {
	DiskManager

	mu    sync.Mutex
	rng   *rand.Rand
	armed bool
	prob  [numFaultOps]float64
	rules []FaultRule
	calls [numFaultOps]int64
	// perm, once set for an op, fails every later call to it.
	perm    [numFaultOps]bool
	noSpace bool

	transient  atomic.Int64
	permanent  atomic.Int64
	noSpaceCnt atomic.Int64
	shortReads atomic.Int64
	tornWrites atomic.Int64
}

// WithFaults wraps dm in a FaultDiskManager seeded with seed, armed
// immediately. Configure probabilities and rules before handing it to a
// buffer pool, or concurrently — all knobs are mutex-protected.
func WithFaults(dm DiskManager, seed int64) *FaultDiskManager {
	return &FaultDiskManager{
		DiskManager: dm,
		rng:         rand.New(rand.NewSource(seed)),
		armed:       true,
	}
}

// SetProb sets the probability (0..1) that an armed call to op fails
// with a transient error.
func (f *FaultDiskManager) SetProb(op FaultOp, p float64) {
	f.mu.Lock()
	f.prob[op] = p
	f.mu.Unlock()
}

// AddRule schedules a deterministic fault.
func (f *FaultDiskManager) AddRule(r FaultRule) {
	f.mu.Lock()
	f.rules = append(f.rules, r)
	f.mu.Unlock()
}

// Arm enables injection; Disarm makes the wrapper transparent.
func (f *FaultDiskManager) Arm() { f.mu.Lock(); f.armed = true; f.mu.Unlock() }

// Disarm disables injection (counters and call tallies keep counting
// calls so later rules still line up if re-armed).
func (f *FaultDiskManager) Disarm() { f.mu.Lock(); f.armed = false; f.mu.Unlock() }

// Counters returns a snapshot of injected-fault counts.
func (f *FaultDiskManager) Counters() FaultCounters {
	return FaultCounters{
		Transient:  f.transient.Load(),
		Permanent:  f.permanent.Load(),
		NoSpace:    f.noSpaceCnt.Load(),
		ShortReads: f.shortReads.Load(),
		TornWrites: f.tornWrites.Load(),
	}
}

// Calls returns how many calls to op the wrapper has seen, armed or not —
// the number a FaultRule's Nth counts from, so a test can schedule a
// fault on "the next write" of a manager that has already been written.
func (f *FaultDiskManager) Calls(op FaultOp) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[op]
}

// decide rolls one call of op. It returns the fault to inject (kind +
// torn byte count) or ok=true to pass the call through.
func (f *FaultDiskManager) decide(op FaultOp) (kind FaultKind, tornBytes int, inject bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls[op]++
	if !f.armed {
		return 0, 0, false
	}
	if f.perm[op] {
		return FaultPermanent, 0, true
	}
	if f.noSpace && (op == FaultWrite || op == FaultAlloc || op == FaultSync) {
		return FaultNoSpace, 0, true
	}
	n := f.calls[op]
	for _, r := range f.rules {
		if r.Op != op || r.Nth != n {
			continue
		}
		switch r.Kind {
		case FaultPermanent:
			f.perm[op] = true
		case FaultNoSpace:
			f.noSpace = true
		}
		return r.Kind, r.TornBytes, true
	}
	if p := f.prob[op]; p > 0 && f.rng.Float64() < p {
		return FaultTransient, 0, true
	}
	return 0, 0, false
}

// ReadPage injects read faults, else delegates.
func (f *FaultDiskManager) ReadPage(id PageID, buf []byte) error {
	kind, _, inject := f.decide(FaultRead)
	if !inject {
		return f.DiskManager.ReadPage(id, buf)
	}
	switch kind {
	case FaultPermanent:
		f.permanent.Add(1)
		return ErrInjectedPermanentIO
	case FaultShortRead:
		// The first half of the page arrives; the tail is garbage the
		// caller must not trust — model that by zeroing it.
		if err := f.DiskManager.ReadPage(id, buf); err != nil {
			return err
		}
		for i := len(buf) / 2; i < len(buf); i++ {
			buf[i] = 0
		}
		f.shortReads.Add(1)
		return ErrShortRead
	default:
		f.transient.Add(1)
		return ErrInjectedIO
	}
}

// WritePage injects write faults — including torn writes, where the
// first TornBytes of data land over the old page image and the rest of
// the old image survives — else delegates.
func (f *FaultDiskManager) WritePage(id PageID, data []byte) error {
	kind, tornBytes, inject := f.decide(FaultWrite)
	if !inject {
		return f.DiskManager.WritePage(id, data)
	}
	switch kind {
	case FaultPermanent:
		f.permanent.Add(1)
		return ErrInjectedPermanentIO
	case FaultNoSpace:
		f.noSpaceCnt.Add(1)
		return ErrNoSpace
	case FaultTorn:
		if tornBytes <= 0 || tornBytes > len(data) {
			tornBytes = len(data) / 2
		}
		merged := make([]byte, len(data))
		// Old image where it exists (a fresh page reads back zeroes).
		if err := f.DiskManager.ReadPage(id, merged); err != nil {
			for i := range merged {
				merged[i] = 0
			}
		}
		copy(merged[:tornBytes], data[:tornBytes])
		if err := f.DiskManager.WritePage(id, merged); err != nil {
			return err
		}
		f.tornWrites.Add(1)
		return ErrInjectedIO
	default:
		f.transient.Add(1)
		return ErrInjectedIO
	}
}

// AllocatePage injects alloc faults (ENOSPC territory), else delegates.
func (f *FaultDiskManager) AllocatePage() (PageID, error) {
	kind, _, inject := f.decide(FaultAlloc)
	if !inject {
		return f.DiskManager.AllocatePage()
	}
	switch kind {
	case FaultPermanent:
		f.permanent.Add(1)
		return InvalidPageID, ErrInjectedPermanentIO
	case FaultNoSpace:
		f.noSpaceCnt.Add(1)
		return InvalidPageID, ErrNoSpace
	default:
		f.transient.Add(1)
		return InvalidPageID, ErrInjectedIO
	}
}

// Sync injects fsync faults, else delegates.
func (f *FaultDiskManager) Sync() error {
	kind, _, inject := f.decide(FaultSync)
	if !inject {
		return f.DiskManager.Sync()
	}
	switch kind {
	case FaultPermanent:
		f.permanent.Add(1)
		return ErrInjectedPermanentIO
	case FaultNoSpace:
		f.noSpaceCnt.Add(1)
		return ErrNoSpace
	default:
		f.transient.Add(1)
		return ErrInjectedIO
	}
}
