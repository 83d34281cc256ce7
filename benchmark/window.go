package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"
)

const slices100 = 100 // slices in a measured window

// windowStats is what the measured window yields.
type windowStats struct {
	statements int
	// Per slice, calibrated µs: the typical statement — every gated kind
	// at its p50, weighted by its share of the slice — and the p50 of
	// every kind that ran in it.
	sliceTypical []float64
	kindP50      [numKinds][]float64
	// The typical statement and the primary kind's p50, uncalibrated.
	rawTypical, rawP50 []float64
	// Ungated kinds: every statement's calibrated µs.
	kindAll [numKinds][]float64
	// all holds every other statement's calibrated µs, for the tail.
	all []float64
	// calTotalUS is the calibrated time of every statement, ungated kinds
	// included.
	calTotalUS float64
	blocks     []float64 // reference-op µs of each block in the window

	before, after map[string]int64 // server counters

	cpuUS       float64 // process CPU inside slices (reference blocks excluded)
	allocBytes  uint64
	allocs      uint64
	gcCycles    uint32
	primaryMean float64 // calibrated mean µs of the primary kind
}

// median is the mean of the middle two values of an even count, as
// Python's statistics.median has it; 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// quantile sorts a copy of v and returns its q-quantile (nearest rank).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return s[min(int(q*float64(len(s))), len(s)-1)]
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window runs the measured window: a hundred slices of equal statement
// count, a block of reference ops after each, every slice calibrated by
// the blocks on either side of it.
func (r *run) window() (*windowStats, error) {
	perSlice := roundTo(int(float64(r.w.rate)*float64(r.seconds)*r.scale*5/6/slices100), r.w.round)
	ws := &windowStats{}
	var err error
	if ws.before, err = r.env.c.Stats(); err != nil {
		return nil, err
	}
	firstBlock := len(r.clk.blocks)
	if _, err := r.clk.factor(); err != nil { // the block before the first slice
		return nil, err
	}

	// The wall-clock guard: a commit many times slower than the one the
	// rates were set on still ends within the driver's limit, with fewer
	// slices.
	deadline := time.Now().Add(time.Duration(r.seconds) * 10 * time.Second)

	var dur [numKinds][]float64 // raw µs of the current slice, per kind
	var ms runtime.MemStats
	i, primaryN := 0, 0
	for s := 0; s < slices100 && time.Now().Before(deadline); s++ {
		for k := range dur {
			dur[k] = dur[k][:0]
		}
		runtime.ReadMemStats(&ms)
		mallocs, bytes, gcs := ms.Mallocs, ms.TotalAlloc, ms.NumGC
		cpu := cpuTime()
		for n := 0; n < perSlice; n++ {
			st := r.w.next(r.gen, i)
			dur[st.kind] = append(dur[st.kind], float64(r.exec(st, i).Nanoseconds())/1e3)
			i++
		}
		if r.w.writes && (s+1)%maintainEvery == 0 {
			for _, st := range maintenance {
				dur[st.kind] = append(dur[st.kind], float64(r.exec(st, i).Nanoseconds())/1e3)
			}
		}
		ws.cpuUS += float64((cpuTime() - cpu).Microseconds())
		runtime.ReadMemStats(&ms)
		ws.allocs += ms.Mallocs - mallocs
		ws.allocBytes += ms.TotalAlloc - bytes
		ws.gcCycles += ms.NumGC - gcs

		f, err := r.clk.factor()
		if err != nil {
			return nil, err
		}
		sum, n := 0.0, 0
		for k := kind(0); k < numKinds; k++ {
			if len(dur[k]) == 0 {
				continue
			}
			ws.statements += len(dur[k])
			total := 0.0
			for _, d := range dur[k] {
				total += d
			}
			ws.calTotalUS += total * f
			if k.ungated() {
				for _, d := range dur[k] {
					ws.kindAll[k] = append(ws.kindAll[k], d*f)
				}
				continue
			}
			for _, d := range dur[k] {
				ws.all = append(ws.all, d*f)
			}
			p50 := median(dur[k])
			sum += p50 * float64(len(dur[k]))
			n += len(dur[k])
			ws.kindP50[k] = append(ws.kindP50[k], p50*f)
			if k == r.w.primary {
				ws.rawP50 = append(ws.rawP50, p50)
				ws.primaryMean += total * f
				primaryN += len(dur[k])
			}
		}
		ws.sliceTypical = append(ws.sliceTypical, sum/float64(n)*f)
		ws.rawTypical = append(ws.rawTypical, sum/float64(n))
	}
	if len(ws.sliceTypical) == 0 {
		return nil, fmt.Errorf("window ran no slice")
	}
	ws.blocks = r.clk.blocks[firstBlock:]
	if ws.after, err = r.env.c.Stats(); err != nil {
		return nil, err
	}
	ws.primaryMean /= float64(primaryN)
	return ws, nil
}
