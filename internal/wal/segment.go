package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
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

var errStopScan = errors.New("wal: stop scan")

// TruncateAfter physically removes every record with an LSN greater
// than lsn from the log: whole segments past lsn are deleted and the
// segment containing lsn is cut just after it. Recovery calls this
// after discarding an uncommitted tail, so the discarded records cannot
// resurface (and be wrongly replayed as committed) at the next reopen.
// No Writer may have the log open during the call.
func TruncateAfter(dir string, lsn LSN) error {
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if seg.first > lsn {
			if err := os.Remove(seg.path); err != nil {
				return fmt.Errorf("wal: truncate: remove %s: %w", seg.path, err)
			}
			continue
		}
		// scanSegment stops at the frame whose callback errors and
		// returns the offset of that frame — the cut point.
		cut, _, err := scanSegment(seg.path, func(l LSN, _ []byte) error {
			if l > lsn {
				return errStopScan
			}
			return nil
		})
		if err != nil && !errors.Is(err, errStopScan) {
			return err
		}
		if size, serr := fileSize(seg.path); serr == nil && cut < size {
			if terr := os.Truncate(seg.path, cut); terr != nil {
				return fmt.Errorf("wal: truncate %s: %w", seg.path, terr)
			}
		}
	}
	return nil
}

// HasLog reports whether dir holds any log segments. Callers opening a
// database with logging disabled use it to refuse a directory whose log
// has not been recovered.
func HasLog(dir string) bool {
	segs, err := listSegments(dir)
	return err == nil && len(segs) > 0
}

// scanSegment iterates the valid records of one segment file, calling fn
// for each raw (lsn, body) pair. It returns the byte offset just past
// the last valid frame and the last valid LSN (0 if none). Scanning
// stops silently at the first torn or corrupt frame — distinguishing a
// crash-torn tail from damage is the caller's job.
func scanSegment(path string, fn func(lsn LSN, body []byte) error) (validEnd int64, last LSN, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: read %s: %w", path, err)
	}
	off := 0
	for {
		lsn, body, n, ok := parseFrame(b[off:])
		if !ok {
			break
		}
		if fn != nil {
			if err := fn(lsn, body); err != nil {
				return int64(off), last, err
			}
		}
		last = lsn
		off += n
	}
	return int64(off), last, nil
}

// parseFrame validates the frame at the head of b and returns its LSN,
// its body (type byte + payload, aliasing b) and its total length. ok is
// false for anything but a whole frame with a matching checksum — the
// torn tail of the log, or corruption.
func parseFrame(b []byte) (lsn LSN, body []byte, n int, ok bool) {
	if len(b) < frameHeaderSize {
		return 0, nil, 0, false
	}
	size := int(binary.LittleEndian.Uint32(b))
	if size == 0 || size > maxRecordSize || frameHeaderSize+size > len(b) {
		return 0, nil, 0, false
	}
	lsn = LSN(binary.LittleEndian.Uint64(b[8:]))
	body = b[frameHeaderSize : frameHeaderSize+size]
	if crc32.Checksum(b[8:frameHeaderSize+size], crcTable) != binary.LittleEndian.Uint32(b[4:]) {
		return 0, nil, 0, false
	}
	return lsn, body, frameHeaderSize + size, true
}
