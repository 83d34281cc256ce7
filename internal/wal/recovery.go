package wal

import (
	"fmt"
	"os"
)

// ReplayStats summarizes one replay pass.
type ReplayStats struct {
	Segments    int
	Records     int64
	Checkpoints int64
	FirstLSN    LSN
	LastLSN     LSN
	// TornTail is true when the final segment ended in an incomplete or
	// corrupt frame — the expected signature of a crash mid-append.
	TornTail bool
}

// Replay iterates every valid record of the log in LSN order, calling fn
// for each. A torn tail on the last segment stops replay cleanly (it is
// the normal result of a crash); a premature end on any earlier segment,
// or a gap in the LSN sequence, is reported as corruption. A missing or
// empty directory is an empty log.
func Replay(dir string, fn func(*Record) error) (ReplayStats, error) {
	var st ReplayStats
	segs, err := listSegments(dir)
	if err != nil {
		return st, err
	}
	st.Segments = len(segs)
	expect := LSN(0) // next expected LSN; 0 = not yet known
	for i, seg := range segs {
		if expect != 0 && seg.first != expect {
			return st, fmt.Errorf("wal: segment %s starts at LSN %d, expected %d (log damaged)", seg.path, seg.first, expect)
		}
		validEnd, lastLSN, err := scanSegment(seg.path, func(first LSN, n int, recs []byte) error {
			if expect != 0 && first != expect {
				return fmt.Errorf("wal: frame at LSN %d, expected %d (log damaged)", first, expect)
			}
			if st.FirstLSN == 0 {
				st.FirstLSN = first
			}
			expect = first + LSN(n)
			return decodeFrame(first, recs, func(rec *Record) error {
				st.LastLSN = rec.LSN
				st.Records++
				if rec.Type == RecCheckpoint {
					st.Checkpoints++
				}
				return fn(rec)
			})
		})
		if err != nil {
			return st, err
		}
		// scanSegment stops at the first invalid frame. That is fine on
		// the last segment (torn tail); on earlier segments it means a
		// later segment exists past the damage.
		if i < len(segs)-1 {
			if fi, statErr := fileSize(seg.path); statErr == nil && validEnd < fi {
				return st, fmt.Errorf("wal: segment %s damaged at offset %d", seg.path, validEnd)
			}
		} else if fi, statErr := fileSize(seg.path); statErr == nil && validEnd < fi {
			st.TornTail = true
		}
		if lastLSN != 0 {
			expect = lastLSN + 1
		} else if expect == 0 {
			expect = seg.first
		}
	}
	return st, nil
}

func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
