package wal

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Segment files are named wal-<firstLSN as 16 hex digits>.seg so a
// lexicographic sort is also an LSN sort.
const (
	segPrefix = "wal-"
	segSuffix = ".seg"
)

func segmentName(first LSN) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, uint64(first), segSuffix)
}

type segmentInfo struct {
	path  string
	first LSN
}

// listSegments returns the log segments in dir in LSN order. A missing
// directory is an empty log.
func listSegments(dir string) ([]segmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	var segs []segmentInfo
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		first, perr := strconv.ParseUint(hex, 16, 64)
		if perr != nil {
			continue
		}
		segs = append(segs, segmentInfo{path: filepath.Join(dir, name), first: LSN(first)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// frameParses counts the frames scanSegment has parsed, for the test that
// holds a reopen to one parse of each.
var frameParses atomic.Int64

// scanSegment iterates the valid frames of one segment file, calling fn
// for each with its first LSN, its record count, its records, inflated
// when the frame holds them deflated (valid during the call), and the
// byte offset just past it. It returns the offset just past the last
// valid frame and the file's size. Scanning stops silently at the first
// torn or corrupt frame — distinguishing a crash-torn tail from damage is
// the caller's job.
func scanSegment(path string, fn func(first LSN, n int, recs []byte, end int64) error) (validEnd, size int64, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: read %s: %w", path, err)
	}
	var fr frameReader
	for off := 0; ; {
		first, n, recs, k, ok := fr.parseFrame(b[off:])
		if !ok {
			return int64(off), int64(len(b)), nil
		}
		frameParses.Add(1)
		if err := fn(first, n, recs, int64(off+k)); err != nil {
			return int64(off), int64(len(b)), err
		}
		off += k
	}
}

// frameReader parses frames, inflating the deflated ones into a buffer it
// keeps from frame to frame.
type frameReader struct {
	src bytes.Reader
	zr  io.ReadCloser // a flate reader, reset for each deflated frame
	buf []byte
}

// parseFrame validates the frame at the head of b and returns its first
// LSN, its record count, its records and its total length. The records
// alias b, or r's buffer when the frame is deflated, valid until r's next
// use. ok is false for anything but a whole frame with a matching
// checksum whose records exactly fill it — the torn tail of the log, or
// corruption.
func (r *frameReader) parseFrame(b []byte) (first LSN, n int, recs []byte, size int, ok bool) {
	if len(b) < frameHeaderSize {
		return 0, 0, nil, 0, false
	}
	word := binary.LittleEndian.Uint32(b)
	body := int(word &^ frameDeflated)
	if body == 0 || body > maxFrameSize || frameHeaderSize+body > len(b) {
		return 0, 0, nil, 0, false
	}
	size = frameHeaderSize + body
	if crc32.Checksum(b[8:size], crcTable) != binary.LittleEndian.Uint32(b[4:]) {
		return 0, 0, nil, 0, false
	}
	recs = b[frameHeaderSize:size]
	if word&frameDeflated != 0 {
		if recs, ok = r.inflate(recs); !ok {
			return 0, 0, nil, 0, false
		}
	}
	if n, ok = countRecords(recs); !ok || n == 0 {
		return 0, 0, nil, 0, false
	}
	return LSN(binary.LittleEndian.Uint64(b[8:])), n, recs, size, true
}

// inflate returns the records the DEFLATE stream z holds. ok is false
// unless z is one whole stream that ends exactly where z does and
// inflates to at most maxFrameSize bytes; r's buffer never grows past
// that.
func (r *frameReader) inflate(z []byte) (recs []byte, ok bool) {
	r.src.Reset(z)
	if r.zr == nil {
		r.zr = flate.NewReader(&r.src)
	} else if err := r.zr.(flate.Resetter).Reset(&r.src, nil); err != nil {
		return nil, false
	}
	out := r.buf[:0]
	for {
		if len(out) == cap(out) {
			if len(out) == maxFrameSize {
				// Full: the stream must end here.
				var one [1]byte
				if k, err := r.zr.Read(one[:]); k > 0 || err != io.EOF {
					return nil, false
				}
				break
			}
			grown := make([]byte, len(out), min(max(2*cap(out), 4*len(z), 4<<10), maxFrameSize))
			copy(grown, out)
			out = grown
		}
		k, err := r.zr.Read(out[len(out):cap(out)])
		out = out[:len(out)+k]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, false
		}
	}
	r.buf = out
	return out, r.src.Len() == 0
}
