package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Meta page. Page 0 of every relation file is a slotted page like every
// other, and its one record, in slot 0, is
//
//	[magic u32][format u32][body ...]
//
// magic names the access method that owns the file, format is the one
// on-disk format version of all file kinds, and the body is the access
// method's own: it lays the body out, this file frames, checks and
// writes it, logging each change as a slot record like any other.
const (
	metaSlot       = 0
	metaHeaderSize = 8

	// FormatVersion is the on-disk format this build writes, and the only
	// one it reads.
	FormatVersion = 5
)

// ParseMeta splits the slot-0 record of a page 0 into magic, format
// version and body, for tools that read pages straight from disk. A page
// that holds no such record parses as magic and format 0.
func ParseMeta(page0 []byte) (magic, format uint32, body []byte) {
	rec := SlotRead(page0, metaSlot)
	if len(rec) < metaHeaderSize {
		return 0, 0, nil
	}
	return binary.LittleEndian.Uint32(rec), binary.LittleEndian.Uint32(rec[4:]), rec[metaHeaderSize:]
}

// CreateMeta makes page 0 of the pool's file, which must be empty: the
// framing for an access method of the given magic, and its first body.
func (bp *BufferPool) CreateMeta(magic uint32, body []byte) error {
	if bp.dm.NumPages() != 0 {
		return fmt.Errorf("storage: create %s: file is not empty", bp.fileName)
	}
	rec := binary.LittleEndian.AppendUint32(make([]byte, 0, metaHeaderSize+len(body)), magic)
	rec = binary.LittleEndian.AppendUint32(rec, FormatVersion)
	_, err := bp.NewRecordPage(append(rec, body...)) // page 0, slot 0: metaSlot
	return err
}

// ReadMeta fills body from page 0 of the pool's file, after checking that
// the file is of this build's format and belongs to the access method of
// the given magic.
func (bp *BufferPool) ReadMeta(magic uint32, body []byte) error {
	meta, err := bp.Fetch(0)
	if err != nil {
		return fmt.Errorf("storage: open %s: %w", bp.fileName, err)
	}
	defer bp.Unpin(meta, false)
	got, format, stored := ParseMeta(meta.Data)
	switch {
	case SlotRead(meta.Data, metaSlot) == nil:
		return fmt.Errorf("storage: open %s: page 0 holds no meta record: the file predates on-disk format version %d, the only one this build reads (load the file with the build that wrote it)", bp.fileName, FormatVersion)
	case format != FormatVersion:
		return fmt.Errorf("storage: open %s: on-disk format version %d, this build reads version %d only (load the file with the build that wrote it)", bp.fileName, format, FormatVersion)
	case got != magic:
		return fmt.Errorf("storage: open %s: magic %#08x, want %#08x (the file belongs to another access method)", bp.fileName, got, magic)
	case len(stored) != len(body):
		return fmt.Errorf("storage: open %s: meta body of %d bytes, want %d", bp.fileName, len(stored), len(body))
	}
	copy(body, stored)
	return nil
}

// WriteMeta stores body in page 0, dirtying the page — and so logging the
// change as a slot patch with the next record group — only when body
// differs from what the page holds.
func (bp *BufferPool) WriteMeta(body []byte) error {
	meta, err := bp.Fetch(0)
	if err != nil {
		return err
	}
	old := SlotRead(meta.Data, metaSlot)
	if len(old) != metaHeaderSize+len(body) {
		bp.Unpin(meta, false)
		return fmt.Errorf("storage: %s: meta record of %d bytes, want %d", bp.fileName, len(old), metaHeaderSize+len(body))
	}
	if bytes.Equal(old[metaHeaderSize:], body) {
		bp.Unpin(meta, false)
		return nil
	}
	return bp.UnpinRewrite(meta, metaSlot, append(append(make([]byte, 0, len(old)), old[:metaHeaderSize]...), body...))
}
