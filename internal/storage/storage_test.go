package storage

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"
)

func TestFileDiskManagerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.dat")
	dm, err := OpenFile(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer dm.Close()

	id0, err := dm.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	id1, err := dm.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	if id0 != 0 || id1 != 1 {
		t.Fatalf("allocate ids = %d,%d, want 0,1", id0, id1)
	}
	buf := make([]byte, 512)
	for i := range buf {
		buf[i] = byte(i)
	}
	if err := dm.WritePage(id1, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	if err := dm.ReadPage(id1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, got) {
		t.Fatal("page round trip mismatch")
	}
	// Reopen and read again.
	if err := dm.Close(); err != nil {
		t.Fatal(err)
	}
	dm2, err := OpenFile(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer dm2.Close()
	if dm2.NumPages() != 2 {
		t.Fatalf("NumPages after reopen = %d, want 2", dm2.NumPages())
	}
	got2 := make([]byte, 512)
	if err := dm2.ReadPage(id1, got2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, got2) {
		t.Fatal("persisted page mismatch after reopen")
	}
}

func TestDiskManagerBounds(t *testing.T) {
	dm := NewMem(256)
	buf := make([]byte, 256)
	if err := dm.ReadPage(0, buf); err == nil {
		t.Error("read of unallocated page should fail")
	}
	if err := dm.WritePage(5, buf); err == nil {
		t.Error("write of unallocated page should fail")
	}
	if _, err := dm.AllocatePage(); err != nil {
		t.Fatal(err)
	}
	if err := dm.ReadPage(0, buf); err != nil {
		t.Errorf("read of allocated page: %v", err)
	}
}

func TestBufferPoolHitMiss(t *testing.T) {
	dm := NewMem(256)
	bp := NewBufferPool("", dm, 4)
	p, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	p.Data[0] = 42
	bp.Unpin(p, true)

	q, err := bp.Fetch(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if q.Data[0] != 42 {
		t.Fatal("cached page lost its data")
	}
	bp.Unpin(q, false)
	st := bp.Stats()
	if st.Hits != 1 {
		t.Fatalf("hits = %d, want 1", st.Hits)
	}
}

func TestBufferPoolEvictionWritesBack(t *testing.T) {
	dm := NewMem(256)
	bp := NewBufferPool("", dm, 4)
	var first PageID
	// Create more pages than frames; early ones must be evicted and their
	// content written back.
	for i := 0; i < 10; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = p.ID
		}
		p.Data[0] = byte(i + 1)
		bp.Unpin(p, true)
	}
	p, err := bp.Fetch(first)
	if err != nil {
		t.Fatal(err)
	}
	if p.Data[0] != 1 {
		t.Fatalf("evicted page content lost: got %d", p.Data[0])
	}
	bp.Unpin(p, false)
	if bp.Stats().Evictions == 0 {
		t.Fatal("expected evictions")
	}
}

func TestBufferPoolAllPinned(t *testing.T) {
	dm := NewMem(256)
	bp := NewBufferPool("", dm, 4)
	var pages []*Page
	for i := 0; i < 4; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
	if _, err := bp.NewPage(); err == nil {
		t.Fatal("expected pool-exhausted error with all frames pinned")
	}
	for _, p := range pages {
		bp.Unpin(p, false)
	}
	if _, err := bp.NewPage(); err != nil {
		t.Fatalf("after unpinning, NewPage should succeed: %v", err)
	}
}

func TestBufferPoolFlushAll(t *testing.T) {
	dm := NewMem(256)
	bp := NewBufferPool("", dm, 4)
	p, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	p.Data[7] = 99
	bp.Unpin(p, true)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 256)
	if err := dm.ReadPage(p.ID, raw); err != nil {
		t.Fatal(err)
	}
	if raw[7] != 99 {
		t.Fatal("FlushAll did not persist dirty page")
	}
}

func TestSlottedInsertReadDelete(t *testing.T) {
	data := make([]byte, 512)
	SlotInit(data)
	s1, ok := SlotInsert(data, []byte("hello"))
	if !ok {
		t.Fatal("insert failed")
	}
	s2, ok := SlotInsert(data, []byte("world!"))
	if !ok {
		t.Fatal("insert failed")
	}
	if string(SlotRead(data, s1)) != "hello" || string(SlotRead(data, s2)) != "world!" {
		t.Fatal("read mismatch")
	}
	if SlotLive(data) != 2 {
		t.Fatalf("live = %d, want 2", SlotLive(data))
	}
	SlotDelete(data, s1)
	if SlotRead(data, s1) != nil {
		t.Fatal("deleted slot still readable")
	}
	if SlotLive(data) != 1 {
		t.Fatalf("live = %d, want 1", SlotLive(data))
	}
	// s2 unaffected.
	if string(SlotRead(data, s2)) != "world!" {
		t.Fatal("sibling record damaged by delete")
	}
}

func TestSlottedSlotReuse(t *testing.T) {
	data := make([]byte, 512)
	SlotInit(data)
	s1, _ := SlotInsert(data, []byte("aaaa"))
	SlotInsert(data, []byte("bbbb"))
	SlotDelete(data, s1)
	s3, ok := SlotInsert(data, []byte("cccc"))
	if !ok {
		t.Fatal("insert failed")
	}
	if s3 != s1 {
		t.Fatalf("dead slot not reused: got %d, want %d", s3, s1)
	}
}

func TestSlottedUpdateGrowAndShrink(t *testing.T) {
	data := make([]byte, 256)
	SlotInit(data)
	s, _ := SlotInsert(data, []byte("short"))
	if !SlotUpdate(data, s, []byte("a much much longer record")) {
		t.Fatal("grow update failed")
	}
	if string(SlotRead(data, s)) != "a much much longer record" {
		t.Fatal("grown record mismatch")
	}
	if !SlotUpdate(data, s, []byte("x")) {
		t.Fatal("shrink update failed")
	}
	if string(SlotRead(data, s)) != "x" {
		t.Fatal("shrunk record mismatch")
	}
}

func TestSlottedUpdateTooBigPreservesOld(t *testing.T) {
	data := make([]byte, 64)
	SlotInit(data)
	s, ok := SlotInsert(data, []byte("keepme"))
	if !ok {
		t.Fatal("insert failed")
	}
	big := make([]byte, 200)
	if SlotUpdate(data, s, big) {
		t.Fatal("oversized update should fail")
	}
	if string(SlotRead(data, s)) != "keepme" {
		t.Fatal("failed update damaged old record")
	}
}

func TestSlottedCompactionReclaims(t *testing.T) {
	data := make([]byte, 256)
	SlotInit(data)
	rec := bytes.Repeat([]byte("z"), 40)
	var slots []int
	for {
		s, ok := SlotInsert(data, rec)
		if !ok {
			break
		}
		slots = append(slots, s)
	}
	if len(slots) < 3 {
		t.Fatalf("expected at least 3 inserts, got %d", len(slots))
	}
	// Delete every other record, then a record of their combined size must
	// fit via compaction.
	for i := 0; i < len(slots); i += 2 {
		SlotDelete(data, slots[i])
	}
	big := bytes.Repeat([]byte("y"), 60)
	if _, ok := SlotInsert(data, big); !ok {
		t.Fatal("insert after deletes should succeed via compaction")
	}
}

// slotCompact reads the records from a borrowed copy of the area — so it
// allocates nothing — and must lay the page out exactly as the per-record
// algorithm it replaced did (pages are logged as images: the golden WAL
// stream pins their bytes): live records in slot order from the top of
// the area down, every other byte left alone.
func TestSlotCompactLayoutAndAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	data := make([]byte, 2048)
	SlotInit(data)
	// Scramble: offsets out of slot order, holes, reused slots.
	var live []int
	for step := 0; step < 400; step++ {
		rec := make([]byte, 8+r.Intn(40))
		r.Read(rec)
		switch {
		case len(live) > 0 && r.Intn(3) == 0:
			i := r.Intn(len(live))
			SlotDelete(data, live[i])
			live = append(live[:i], live[i+1:]...)
		case len(live) > 0 && r.Intn(3) == 0:
			SlotUpdate(data, live[r.Intn(len(live))], rec)
		default:
			if s, ok := SlotInsert(data, rec); ok {
				live = append(live, s)
			}
		}
	}
	if len(live) < 20 {
		t.Fatalf("fixture has %d live records, want a well-filled page", len(live))
	}

	want := append([]byte(nil), data...)
	hi := len(want)
	for s := 0; s < SlotCount(data); s++ {
		if rec := SlotRead(data, s); rec != nil { // read from the untouched original
			hi -= len(rec)
			copy(want[hi:], rec)
			setSlotEntry(want, s, uint16(hi), uint16(len(rec)))
		}
	}
	put16(want, 4, uint16(hi))

	got := append([]byte(nil), data...)
	slotCompact(got)
	if !bytes.Equal(got, want) {
		t.Fatal("slotCompact laid the page out differently from the per-record reference")
	}
	scrambled := append([]byte(nil), data...)
	if allocs := testing.AllocsPerRun(20, func() {
		copy(scrambled, data)
		slotCompact(scrambled)
	}); allocs != 0 {
		t.Fatalf("slotCompact of %d scattered records: %.0f allocations, want 0", len(live), allocs)
	}
	if !bytes.Equal(scrambled, want) {
		t.Fatal("slotCompact through a reused buffer laid the page out differently")
	}
	// A growing update that has to compact allocates nothing either.
	victim, grown := live[len(live)/2], make([]byte, 0, 256)
	if allocs := testing.AllocsPerRun(20, func() {
		copy(scrambled, data)
		grown = append(append(grown[:0], SlotRead(scrambled, victim)...), "grown by one item"...)
		for SlotUpdate(scrambled, victim, grown) && len(grown) < 200 {
			grown = append(grown, "and one more item"...)
		}
	}); allocs != 0 {
		t.Fatalf("growing SlotUpdate: %.0f allocations, want 0", allocs)
	}
}

// Randomized model check: the slotted page must behave exactly like a
// map[slot][]byte under random insert/update/delete while never corrupting
// surviving records.
func TestSlottedRandomizedModel(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	data := make([]byte, 1024)
	SlotInit(data)
	model := map[int][]byte{}
	randRec := func() []byte {
		b := make([]byte, 1+r.Intn(50))
		r.Read(b)
		return b
	}
	for step := 0; step < 5000; step++ {
		switch r.Intn(3) {
		case 0: // insert
			rec := randRec()
			if s, ok := SlotInsert(data, rec); ok {
				model[s] = append([]byte(nil), rec...)
			}
		case 1: // delete random live slot
			for s := range model {
				SlotDelete(data, s)
				delete(model, s)
				break
			}
		case 2: // update random live slot
			for s := range model {
				rec := randRec()
				if SlotUpdate(data, s, rec) {
					model[s] = append([]byte(nil), rec...)
				}
				break
			}
		}
		if SlotLive(data) != len(model) {
			t.Fatalf("step %d: live=%d model=%d", step, SlotLive(data), len(model))
		}
	}
	for s, want := range model {
		if got := SlotRead(data, s); !bytes.Equal(got, want) {
			t.Fatalf("slot %d mismatch: got %x want %x", s, got, want)
		}
	}
	// ForEach must visit exactly the live slots.
	seen := map[int]bool{}
	SlotForEach(data, func(slot int, rec []byte) bool {
		seen[slot] = true
		return true
	})
	if len(seen) != len(model) {
		t.Fatalf("ForEach visited %d, want %d", len(seen), len(model))
	}
}

func TestSlotFreeSpaceGuarantee(t *testing.T) {
	data := make([]byte, 512)
	SlotInit(data)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		free := SlotFreeSpace(data)
		if free <= 0 {
			break
		}
		n := 1 + r.Intn(free)
		rec := make([]byte, n)
		if _, ok := SlotInsert(data, rec); !ok {
			t.Fatalf("insert of %d bytes failed with FreeSpace=%d", n, free)
		}
	}
}
