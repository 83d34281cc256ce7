package storage

import (
	"encoding/binary"
	"hash/crc32"
)

// Per-page checksums. The page header holds a uint32 at
// pageChecksumOffset: CRC32-Castagnoli over the entire page with that
// field read as zero, so the stamp never invalidates itself. The buffer
// pool stamps every page it writes and verifies every page it reads, of
// every relation file, page 0 included. One rule follows for everything
// that reads a page from disk: a page is trusted when its checksum
// matches; when it does not, recovery rebuilds it from the log's
// file-create record or the page's last image, and everything else
// refuses it with ErrPageCorrupt.
//
// A computed value of 0 is biased to 1, so a stored 0 is never a stamp:
// it is the checksum field of a page that was allocated (zero-filled)
// and never written back, and only an entirely zero page may carry it.

var castagnoliTable = crc32.MakeTable(crc32.Castagnoli)

var checksumZeroField [4]byte

// ComputePageChecksum returns the checksum of data with the stored
// checksum field treated as zero. Never returns 0.
func ComputePageChecksum(data []byte) uint32 {
	if len(data) < PageHeaderSize {
		return 1
	}
	c := crc32.Update(0, castagnoliTable, data[:pageChecksumOffset])
	c = crc32.Update(c, castagnoliTable, checksumZeroField[:])
	c = crc32.Update(c, castagnoliTable, data[pageChecksumOffset+4:])
	if c == 0 {
		c = 1
	}
	return c
}

// PageStoredChecksum returns the checksum stored in the page header.
func PageStoredChecksum(data []byte) uint32 {
	if len(data) < PageHeaderSize {
		return 0
	}
	return binary.LittleEndian.Uint32(data[pageChecksumOffset:])
}

// StampPageChecksum computes and stores the page checksum. Call
// immediately before the page's bytes go to disk.
func StampPageChecksum(data []byte) {
	binary.LittleEndian.PutUint32(data[pageChecksumOffset:], ComputePageChecksum(data))
}

// VerifyPageChecksum checks data against its stored checksum. ok is true
// when they match, or when the page is entirely zero — allocated and
// never written. stored and computed are returned either way so callers
// can build an ErrPageCorrupt.
func VerifyPageChecksum(data []byte) (stored, computed uint32, ok bool) {
	stored = PageStoredChecksum(data)
	if stored == 0 && allZero(data) {
		return 0, 0, true
	}
	computed = ComputePageChecksum(data)
	return stored, computed, stored == computed
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
