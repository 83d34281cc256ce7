package obs

import (
	"runtime"
	"sync/atomic"
)

// goidLookups counts goid calls since process start: the attribution
// tests assert it stays flat across statements that never block.
var goidLookups atomic.Int64

// GoidLookups returns the number of goroutine-id lookups made so far.
func GoidLookups() int64 { return goidLookups.Load() }

// goid returns the current goroutine's id, parsed from the first line of
// a runtime.Stack dump ("goroutine 123 [running]:"). There is no cheap
// public API for this: runtime.Stack walks the whole stack even into a
// 64-byte buffer, about 6 µs under a session's ~20 frames — a fifth of
// a warm point lookup. So the rule throughout the package is that goid
// is never on a statement's path: a session binds its goroutine once
// in its life (SessionEntry.Begin), a tracer once per traced statement
// (Tracer.Arm, gated by an atomic count like Current), and a wait
// resolves its session only when the wait itself costs far more
// (WaitSet.attributed).
func goid() uint64 {
	goidLookups.Add(1)
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id uint64
	for _, c := range buf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
