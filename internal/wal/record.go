package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// On-disk frame layout, little-endian:
//
//	+---------+---------+---------+------+------------- - -
//	| size:4  | crc:4   | lsn:8   | type | payload ...
//	+---------+---------+---------+------+------------- - -
//
// size counts the body (type byte + payload); crc is CRC-32C over the
// lsn bytes and the body, so a record cannot be accepted at the wrong
// position. A size of zero or a checksum mismatch marks the torn tail
// of the log (or corruption) and stops replay.
const (
	frameHeaderSize = 16
	// maxRecordSize bounds one record body; larger sizes are treated
	// as corruption during replay.
	maxRecordSize = 1 << 24
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends the wire frame of one record — body = type byte +
// payload, under lsn — to dst. The checksum runs over the lsn bytes and
// the body, which lie side by side in the frame.
func appendFrame(dst []byte, lsn LSN, typ RecordType, payload []byte) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(1+len(payload)))
	dst = append(dst, 0, 0, 0, 0) // crc, below
	dst = binary.LittleEndian.AppendUint64(dst, uint64(lsn))
	dst = append(dst, byte(typ))
	dst = append(dst, payload...)
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(dst[start+8:], crcTable))
	return dst
}

// Payload layouts (after the type byte):
//
//	page image:  nameLen:2 name pageID:4 holeOff:2 holeLen:2 image...
//	heap insert, slot put:    nameLen:2 name pageID:4 slot:2 rec...
//	slot patch:  nameLen:2 name pageID:4 slot:2 patch...
//	heap delete, slot delete: nameLen:2 name pageID:4 slot:2
//	batch insert: nameLen:2 name pageID:4 n:2 { slot:2 len:4 rec }*n
//	set xmax:    nameLen:2 name pageID:4 slot:2 xid:8
//	clear xmax:  nameLen:2 name pageID:4 slot:2
//	mark aborted: nameLen:2 name pageID:4 slot:2
//	txn commit/abort: xid:8
//	file create: nameLen:2 name
//	checkpoint:  (empty)

func appendName(b []byte, name string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(name)))
	return append(b, name...)
}

// The append* encoders below add one record payload to b — a Group's
// buffer, so that staging a record allocates nothing once the buffer has
// grown to a statement's size.

// appendPageImage encodes an image of pageData without the bytes of
// pageData[holeOff : holeOff+holeLen], so the page's size is the image's
// length plus the hole's. A hole the 16-bit fields cannot describe — a page past
// 64 KB — is not left out.
func appendPageImage(b []byte, file string, page uint32, pageData []byte, holeOff, holeLen int) []byte {
	if holeOff > math.MaxUint16 || holeLen > math.MaxUint16 {
		holeOff, holeLen = 0, 0
	}
	b = appendName(b, file)
	b = binary.LittleEndian.AppendUint32(b, page)
	b = binary.LittleEndian.AppendUint16(b, uint16(holeOff))
	b = binary.LittleEndian.AppendUint16(b, uint16(holeLen))
	b = append(b, pageData[:holeOff]...)
	return append(b, pageData[holeOff+holeLen:]...)
}

func appendHeapOp(b []byte, file string, page uint32, slot uint16, rec []byte) []byte {
	b = appendName(b, file)
	b = binary.LittleEndian.AppendUint32(b, page)
	b = binary.LittleEndian.AppendUint16(b, slot)
	return append(b, rec...)
}

func appendHeapBatch(b []byte, file string, page uint32, slots []uint16, recs [][]byte) []byte {
	b = appendName(b, file)
	b = binary.LittleEndian.AppendUint32(b, page)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(slots)))
	for i, r := range recs {
		b = binary.LittleEndian.AppendUint16(b, slots[i])
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r)))
		b = append(b, r...)
	}
	return b
}

func decodeName(b []byte) (name string, rest []byte, err error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("wal: truncated file name length")
	}
	n := int(binary.LittleEndian.Uint16(b))
	if len(b) < 2+n {
		return "", nil, fmt.Errorf("wal: truncated file name")
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}

// decodeRecord parses a frame body (type byte + payload) into a Record.
// The Data slice is copied, so the caller may reuse the input buffer.
func decodeRecord(lsn LSN, body []byte) (*Record, error) {
	if len(body) < 1 {
		return nil, fmt.Errorf("wal: empty record body")
	}
	r := &Record{LSN: lsn, Type: RecordType(body[0])}
	payload := body[1:]
	var err error
	switch r.Type {
	case RecCheckpoint, RecCommit:
		return r, nil
	case RecFileCreate:
		r.File, _, err = decodeName(payload)
		return r, err
	case RecPageImage:
		r.File, payload, err = decodeName(payload)
		if err != nil {
			return nil, err
		}
		if len(payload) < 8 {
			return nil, fmt.Errorf("wal: truncated page-image header")
		}
		r.Page = binary.LittleEndian.Uint32(payload)
		r.HoleOff = int(binary.LittleEndian.Uint16(payload[4:]))
		r.HoleLen = int(binary.LittleEndian.Uint16(payload[6:]))
		r.Data = append([]byte(nil), payload[8:]...)
		return r, nil
	case RecHeapInsert, RecHeapDelete, RecHeapSetXmax, RecHeapClearXmax, RecHeapMarkAborted,
		RecSlotPut, RecSlotDelete, RecSlotPatch:
		r.File, payload, err = decodeName(payload)
		if err != nil {
			return nil, err
		}
		if len(payload) < 6 {
			return nil, fmt.Errorf("wal: truncated heap-op header")
		}
		r.Page = binary.LittleEndian.Uint32(payload)
		r.Slot = binary.LittleEndian.Uint16(payload[4:])
		switch r.Type {
		case RecHeapInsert, RecSlotPut, RecSlotPatch:
			r.Data = append([]byte(nil), payload[6:]...)
		case RecHeapSetXmax:
			if len(payload) < 14 {
				return nil, fmt.Errorf("wal: truncated set-xmax record")
			}
			r.Xid = binary.LittleEndian.Uint64(payload[6:])
		}
		return r, nil
	case RecTxnCommit, RecTxnAbort:
		if len(payload) < 8 {
			return nil, fmt.Errorf("wal: truncated transaction marker")
		}
		r.Xid = binary.LittleEndian.Uint64(payload)
		return r, nil
	case RecHeapBatchInsert:
		r.File, payload, err = decodeName(payload)
		if err != nil {
			return nil, err
		}
		if len(payload) < 6 {
			return nil, fmt.Errorf("wal: truncated heap-batch header")
		}
		r.Page = binary.LittleEndian.Uint32(payload)
		n := int(binary.LittleEndian.Uint16(payload[4:]))
		payload = payload[6:]
		r.Slots = make([]uint16, 0, n)
		r.Recs = make([][]byte, 0, n)
		for i := 0; i < n; i++ {
			if len(payload) < 6 {
				return nil, fmt.Errorf("wal: truncated heap-batch tuple header")
			}
			slot := binary.LittleEndian.Uint16(payload)
			rl := int(binary.LittleEndian.Uint32(payload[2:]))
			payload = payload[6:]
			if len(payload) < rl {
				return nil, fmt.Errorf("wal: truncated heap-batch tuple")
			}
			r.Slots = append(r.Slots, slot)
			r.Recs = append(r.Recs, append([]byte(nil), payload[:rl]...))
			payload = payload[rl:]
		}
		return r, nil
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", r.Type)
	}
}
