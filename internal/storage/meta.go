package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Meta page. Page 0 of every relation file holds, after the page header,
//
//	[magic u32][format u32][body ...]
//
// magic names the access method that owns the file, format is the one
// on-disk format version of all file kinds, and the body is the access
// method's own: it lays the body out, this file frames, checks and
// writes it.
const (
	metaMagicOffset  = PageHeaderSize
	metaFormatOffset = PageHeaderSize + 4
	metaBodyOffset   = PageHeaderSize + 8

	// FormatVersion is the on-disk format this build writes, and the only
	// one it reads.
	FormatVersion = 3
)

// ParseMeta splits the bytes of a page 0 into magic, format version and
// body, for tools that read pages straight from disk.
func ParseMeta(page0 []byte) (magic, format uint32, body []byte) {
	if len(page0) < metaBodyOffset {
		return 0, 0, nil
	}
	return binary.LittleEndian.Uint32(page0[metaMagicOffset:]),
		binary.LittleEndian.Uint32(page0[metaFormatOffset:]),
		page0[metaBodyOffset:]
}

// CreateMeta makes page 0 of the pool's file, which must be empty: the
// framing for an access method of the given magic, and its first body.
func (bp *BufferPool) CreateMeta(magic uint32, body []byte) error {
	if bp.dm.NumPages() != 0 {
		return fmt.Errorf("storage: create %s: file is not empty", bp.fileName)
	}
	meta, err := bp.NewPage()
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(meta.Data[metaMagicOffset:], magic)
	binary.LittleEndian.PutUint32(meta.Data[metaFormatOffset:], FormatVersion)
	copy(meta.Data[metaBodyOffset:], body)
	bp.Unpin(meta, true)
	return nil
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
	if format != FormatVersion {
		return fmt.Errorf("storage: open %s: on-disk format version %d, this build reads version %d only (load the file with the build that wrote it)", bp.fileName, format, FormatVersion)
	}
	if got != magic {
		return fmt.Errorf("storage: open %s: magic %#08x, want %#08x (the file belongs to another access method)", bp.fileName, got, magic)
	}
	copy(body, stored)
	return nil
}

// WriteMeta stores body in page 0, dirtying the page — and so logging its
// image with the next record group — only when body differs from what the
// page holds.
func (bp *BufferPool) WriteMeta(body []byte) error {
	meta, err := bp.Fetch(0)
	if err != nil {
		return err
	}
	stored := meta.Data[metaBodyOffset:][:len(body)]
	changed := !bytes.Equal(stored, body)
	if changed {
		copy(stored, body)
	}
	bp.Unpin(meta, changed)
	return nil
}
