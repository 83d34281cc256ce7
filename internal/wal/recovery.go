package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// ReplayStats summarizes one replay pass.
type ReplayStats struct {
	Segments    int
	Records     int64
	Checkpoints int64
	LastLSN     LSN
	// TornTail is true when the final segment ended in an incomplete or
	// corrupt frame — the expected signature of a crash mid-append.
	TornTail bool
	// TailDiscarded counts the valid records after the last commit or
	// checkpoint marker: a statement the crash cut short, which does not
	// survive it. 0 when the log holds no marker, all of it being kept.
	TailDiscarded int64
	// End is where the kept log ends, for Cut and OpenWriterAt.
	End End
}

// End is a place in the log between two frames, where a crash's log is
// cut and the writer appends. Only Replay and OpenWriter make one, so no
// End lies inside a frame; the zero End is that of a log with no segment.
type End struct {
	seg  LSN   // first LSN of the segment the end lies in, its name
	off  int64 // byte offset in that segment just past the last kept frame
	next LSN   // the LSN the next record takes
	// ckpt is the oldest segment's first LSN when past 1: the last
	// checkpoint's, whose record opens the segment its rotation began.
	ckpt LSN
}

// Replay iterates every valid record of the log in LSN order, calling fn
// for each, and reports where the log a crash left is kept to: just past
// the last frame a commit or checkpoint marker closes, or, when no valid
// record follows that marker or the log holds none, past the last valid
// frame. Each frame is parsed once.
//
// A torn tail on the last segment stops replay cleanly (it is the normal
// result of a crash); a premature end on any earlier segment, a gap in
// the LSN sequence, or a marker that does not close its frame is reported
// as corruption. A missing or empty directory is an empty log.
func Replay(dir string, fn func(*Record) error) (ReplayStats, error) {
	var st ReplayStats
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		return st, err
	}
	st.Segments = len(segs)
	var marked End          // just past the last frame a marker closes
	expect := segs[0].first // next expected LSN: a segment is named for its first
	for i, seg := range segs {
		if seg.first != expect {
			return st, fmt.Errorf("wal: segment %s starts at LSN %d, expected %d (log damaged)", seg.path, seg.first, expect)
		}
		validEnd, size, err := scanSegment(seg.path, func(first LSN, n int, recs []byte, end int64) error {
			if first != expect {
				return fmt.Errorf("wal: frame at LSN %d, expected %d (log damaged)", first, expect)
			}
			expect = first + LSN(n)
			closed := false
			err := decodeFrame(first, recs, func(rec *Record) error {
				st.LastLSN = rec.LSN
				st.Records++
				if rec.Type == RecCheckpoint {
					st.Checkpoints++
				}
				if rec.Type == RecCommit || rec.Type == RecCheckpoint {
					if rec.LSN != expect-1 {
						return fmt.Errorf("wal: marker at LSN %d inside the frame of LSNs %d to %d (log damaged)", rec.LSN, first, expect-1)
					}
					closed = true
				}
				return fn(rec)
			})
			if closed {
				marked, st.TailDiscarded = End{seg: seg.first, off: end, next: expect}, 0
			} else if marked.seg != 0 {
				st.TailDiscarded += int64(n)
			}
			return err
		})
		if err != nil {
			return st, err
		}
		// scanSegment stops at the first invalid frame: the torn tail of
		// the last segment, damage in any other.
		if validEnd < size {
			if i < len(segs)-1 {
				return st, fmt.Errorf("wal: segment %s damaged at offset %d", seg.path, validEnd)
			}
			st.TornTail = true
		}
		st.End = End{seg: seg.first, off: validEnd, next: expect}
	}
	if st.TailDiscarded > 0 {
		st.End = marked
	}
	if segs[0].first > 1 {
		st.End.ckpt = segs[0].first
	}
	return st, nil
}

// Cut makes e the end of the log in dir without reading it: the segments
// past e's go, the last first, and e's segment is truncated to e's offset,
// so a statement the crash cut short and a torn frame go in one cut. It
// refuses, changing nothing, an end whose segment is missing or shorter.
// No Writer may have the log open during the call.
func Cut(dir string, e End) error {
	segs, err := listSegments(dir)
	if err != nil || e.seg == 0 {
		return err
	}
	path := filepath.Join(dir, segmentName(e.seg))
	fi, err := os.Stat(path)
	if err == nil && fi.Size() < e.off {
		err = fmt.Errorf("%s is %d bytes, short of the end at %d", path, fi.Size(), e.off)
	}
	for _, s := range slices.Backward(segs) {
		if err == nil && s.first > e.seg {
			err = os.Remove(s.path)
		}
	}
	if err == nil {
		err = os.Truncate(path, e.off)
	}
	if err != nil {
		return fmt.Errorf("wal: cut: %w", err)
	}
	return nil
}
