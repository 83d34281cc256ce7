package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
)

// --- checksum unit tests ------------------------------------------------

// TestChecksumRoundTrip: a stamped page verifies; any flipped bit —
// payload, header, or the LSN — fails verification; a stored checksum of
// 0 passes only on a page that is zero throughout.
func TestChecksumRoundTrip(t *testing.T) {
	page := make([]byte, 256)
	if stored, _, ok := VerifyPageChecksum(page); !ok || stored != 0 {
		t.Fatalf("zero page: stored=%d ok=%v, want 0/true", stored, ok)
	}
	SlotInit(page)
	if _, ok := SlotInsert(page, []byte("hello checksums")); !ok {
		t.Fatal("insert failed")
	}
	SetPageLSN(page, 42)

	if stored, _, ok := VerifyPageChecksum(page); ok || stored != 0 {
		t.Fatalf("written page with no stamp: stored=%d ok=%v, want 0/false", stored, ok)
	}

	StampPageChecksum(page)
	stored, computed, ok := VerifyPageChecksum(page)
	if !ok || stored == 0 || stored != computed {
		t.Fatalf("stamped page: stored=%#x computed=%#x ok=%v", stored, computed, ok)
	}

	for _, off := range []int{0, pageLSNOffset, PageHeaderSize + 3, len(page) - 1} {
		mut := append([]byte(nil), page...)
		mut[off] ^= 0x40
		if _, _, ok := VerifyPageChecksum(mut); ok {
			t.Fatalf("bit flip at offset %d not detected", off)
		}
	}

	// The checksum field itself is excluded from the computation: the
	// stamp is idempotent.
	again := append([]byte(nil), page...)
	StampPageChecksum(again)
	if !bytes.Equal(page, again) {
		t.Fatal("restamping changed the page")
	}
}

// --- fault disk manager unit tests --------------------------------------

// seedFaultDisk fills a mem disk with n self-identifying pages and
// wraps it in an armed FaultDiskManager.
func seedFaultDisk(t *testing.T, n int, seed int64) (*FaultDiskManager, *MemDiskManager) {
	t.Helper()
	mem := NewMem(256)
	buf := make([]byte, 256)
	for i := 0; i < n; i++ {
		id, err := mem.AllocatePage()
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(buf, uint32(id))
		StampPageChecksum(buf)
		if err := mem.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	return WithFaults(mem, seed), mem
}

// TestFaultRulesDeterministic: Nth-call rules fire exactly on schedule,
// permanent faults stick, and ENOSPC poisons all space-consuming ops.
func TestFaultRulesDeterministic(t *testing.T) {
	fdm, _ := seedFaultDisk(t, 4, 1)
	fdm.AddRule(FaultRule{Op: FaultRead, Kind: FaultTransient, Nth: 2})
	buf := make([]byte, 256)
	if err := fdm.ReadPage(0, buf); err != nil {
		t.Fatalf("read 1: %v", err)
	}
	if err := fdm.ReadPage(0, buf); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("read 2: got %v, want injected error", err)
	}
	if err := fdm.ReadPage(0, buf); err != nil {
		t.Fatalf("read 3 (after transient): %v", err)
	}

	fdm.AddRule(FaultRule{Op: FaultWrite, Kind: FaultPermanent, Nth: 1})
	if err := fdm.WritePage(0, buf); !errors.Is(err, ErrInjectedPermanentIO) {
		t.Fatalf("write 1: got %v, want permanent error", err)
	}
	if err := fdm.WritePage(0, buf); !errors.Is(err, ErrInjectedPermanentIO) {
		t.Fatalf("write 2: permanent fault did not stick: %v", err)
	}
	if IsTransient(ErrInjectedPermanentIO) {
		t.Fatal("permanent error classified transient")
	}
	if !IsTransient(ErrInjectedIO) || !IsTransient(errors.New("eio")) {
		t.Fatal("transient/unknown errors must classify transient")
	}

	c := fdm.Counters()
	if c.Transient != 1 || c.Permanent != 2 {
		t.Fatalf("counters = %+v, want 1 transient / 2 permanent", c)
	}
}

// TestFaultTornWrite: a torn write lands the first TornBytes of the new
// image over the old page and reports an error — exactly the state a
// power cut mid-write leaves behind.
func TestFaultTornWrite(t *testing.T) {
	fdm, mem := seedFaultDisk(t, 1, 1)
	old := make([]byte, 256)
	if err := mem.ReadPage(0, old); err != nil {
		t.Fatal(err)
	}
	fresh := bytes.Repeat([]byte{0xAB}, 256)
	fdm.AddRule(FaultRule{Op: FaultWrite, Kind: FaultTorn, Nth: 1, TornBytes: 100})
	if err := fdm.WritePage(0, fresh); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("torn write reported %v, want injected error", err)
	}
	got := make([]byte, 256)
	if err := mem.ReadPage(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:100], fresh[:100]) {
		t.Fatal("torn write: new prefix did not land")
	}
	if !bytes.Equal(got[100:], old[100:]) {
		t.Fatal("torn write: old suffix did not survive")
	}
	if c := fdm.Counters(); c.TornWrites != 1 {
		t.Fatalf("torn counter = %d, want 1", c.TornWrites)
	}
}

// TestFaultSeedReplay: the same seed over the same call sequence
// injects faults at the same calls — the property that makes a failing
// torture run reproducible.
func TestFaultSeedReplay(t *testing.T) {
	run := func(seed int64) []bool {
		fdm, _ := seedFaultDisk(t, 1, seed)
		fdm.SetProb(FaultRead, 0.3)
		buf := make([]byte, 256)
		var outcomes []bool
		for i := 0; i < 64; i++ {
			outcomes = append(outcomes, fdm.ReadPage(0, buf) != nil)
		}
		return outcomes
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d diverged between identical seeds", i)
		}
	}
	failed := 0
	for _, f := range a {
		if f {
			failed++
		}
	}
	if failed == 0 || failed == len(a) {
		t.Fatalf("p=0.3 over 64 reads injected %d faults — stream looks broken", failed)
	}
}

// --- buffer pool degradation tests --------------------------------------

// TestFetchRetriesTransientRead: a transient read error under a demand
// miss is retried inside Fetch — the caller never sees it — and the
// retry backoff is charged to the io_retry wait event, not to a lost
// frame.
func TestFetchRetriesTransientRead(t *testing.T) {
	fdm, _ := seedFaultDisk(t, 8, 1)
	bp := NewBufferPool("", fdm, 4)
	fdm.AddRule(FaultRule{Op: FaultRead, Kind: FaultTransient, Nth: 1})
	p, err := bp.Fetch(0)
	if err != nil {
		t.Fatalf("Fetch with one transient error: %v", err)
	}
	if err := checkPage(p); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(p, false)
	if c := fdm.Counters(); c.Transient != 1 {
		t.Fatalf("transient faults = %d, want 1", c.Transient)
	}
}

// TestFetchPermanentReadFails: a permanent error exhausts the retries
// and surfaces; after the device "heals" (disarm) the same page is
// fetchable again and the pool still has all its frames — the failed
// miss released its claim.
func TestFetchPermanentReadFails(t *testing.T) {
	const frames = 4
	fdm, _ := seedFaultDisk(t, frames+1, 1)
	bp := NewBufferPool("", fdm, frames)
	fdm.AddRule(FaultRule{Op: FaultRead, Kind: FaultPermanent, Nth: 1})
	if _, err := bp.Fetch(0); !errors.Is(err, ErrInjectedPermanentIO) {
		t.Fatalf("Fetch: got %v, want permanent error", err)
	}
	fdm.Disarm()
	// Every frame must still be claimable: pin `frames` distinct pages
	// at once. A leaked frame would make the last pin fail.
	var pinned []*Page
	for id := PageID(0); id < frames; id++ {
		p, err := bp.Fetch(id)
		if err != nil {
			t.Fatalf("Fetch(%d) after failed miss: %v", id, err)
		}
		if err := checkPage(p); err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, p)
	}
	for _, p := range pinned {
		bp.Unpin(p, false)
	}
}

// TestConcurrentFetchersShareReadError: 32 goroutines demand-fetch one
// cold page whose read fails through every retry. Exactly one performs
// the read (singleflight); every waiter must receive the error — none
// may hang — no frame may leak, and the next Fetch must succeed.
func TestConcurrentFetchersShareReadError(t *testing.T) {
	const goroutines, frames = 32, 4
	fdm, _ := seedFaultDisk(t, frames+1, 1)
	bp := NewBufferPool("", fdm, frames)
	for n := int64(1); n <= ioRetryAttempts; n++ {
		fdm.AddRule(FaultRule{Op: FaultRead, Kind: FaultTransient, Nth: n})
	}

	var wg sync.WaitGroup
	results := make(chan error, goroutines)
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			p, err := bp.Fetch(0)
			if err == nil {
				err = checkPage(p)
				bp.Unpin(p, false)
			}
			results <- err
		}()
	}
	close(start)
	wg.Wait()
	close(results)

	// The schedule kills exactly the first read's retry budget. The
	// winner of the claim delivers that error to every waiter of its
	// in-flight entry; goroutines arriving after the entry was torn
	// down start a fresh read, which succeeds. Either outcome is
	// correct — what is forbidden is a hang (caught by wg.Wait), a
	// non-injected error, or a leaked frame (checked below).
	sawErr := 0
	for err := range results {
		if err != nil {
			if !errors.Is(err, ErrInjectedIO) {
				t.Fatalf("fetcher got %v, want injected error or success", err)
			}
			sawErr++
		}
	}
	if sawErr == 0 {
		t.Fatal("no fetcher observed the injected error")
	}

	// Second fetch succeeds and no frame leaked.
	var pinned []*Page
	for id := PageID(0); id < frames; id++ {
		p, err := bp.Fetch(id)
		if err != nil {
			t.Fatalf("Fetch(%d) after shared failure: %v", id, err)
		}
		pinned = append(pinned, p)
	}
	for _, p := range pinned {
		bp.Unpin(p, false)
	}
}

// TestCorruptPageNeverServed: a page whose stored checksum does not
// match its contents must surface as ErrPageCorrupt from Fetch — the
// poisoned bytes are never handed to the executor — and neither is a page
// whose checksum field was zeroed: only a page that is zero throughout,
// allocated and never written, may hold 0 there. Healthy pages keep
// working.
func TestCorruptPageNeverServed(t *testing.T) {
	mem := NewMem(256)
	buf := make([]byte, 256)
	for i := 0; i < 4; i++ {
		if _, err := mem.AllocatePage(); err != nil {
			t.Fatal(err)
		}
		SlotInit(buf)
		if _, ok := SlotInsert(buf, []byte("payload")); !ok {
			t.Fatal("insert")
		}
		StampPageChecksum(buf)
		if err := mem.WritePage(PageID(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt page 2: flip one payload bit behind the checksum's back.
	if err := mem.ReadPage(2, buf); err != nil {
		t.Fatal(err)
	}
	buf[PageHeaderSize+10] ^= 0x01
	if err := mem.WritePage(2, buf); err != nil {
		t.Fatal(err)
	}

	bp := NewBufferPool("rel1.tbl", mem, 4)

	p, err := bp.Fetch(1)
	if err != nil {
		t.Fatalf("healthy page: %v", err)
	}
	bp.Unpin(p, false)

	_, err = bp.Fetch(2)
	var pc *ErrPageCorrupt
	if !errors.As(err, &pc) {
		t.Fatalf("corrupt page served: err=%v", err)
	}
	if pc.File != "rel1.tbl" || pc.PageID != 2 {
		t.Fatalf("corruption report names %s page %d, want rel1.tbl page 2", pc.File, pc.PageID)
	}
	if pc.Expected == pc.Got {
		t.Fatalf("corruption report carries equal checksums: %+v", pc)
	}

	// VerifyPage (the SCRUB primitive) reports the same page without
	// disturbing the pool.
	scratch := make([]byte, 256)
	if err := bp.VerifyPage(2, scratch); !IsPageCorrupt(err) {
		t.Fatalf("VerifyPage(2) = %v, want page corrupt", err)
	}
	if err := bp.VerifyPage(3, scratch); err != nil {
		t.Fatalf("VerifyPage(3) = %v, want nil", err)
	}

	// Corruption that clears the checksum field does not switch
	// verification off.
	if err := mem.ReadPage(3, buf); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(buf[pageChecksumOffset:], 0)
	if err := mem.WritePage(3, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.Fetch(3); !IsPageCorrupt(err) {
		t.Fatalf("page with a zeroed checksum field served: err=%v", err)
	}
	if err := bp.VerifyPage(3, scratch); !IsPageCorrupt(err) {
		t.Fatalf("VerifyPage of a zeroed checksum field = %v, want page corrupt", err)
	}

	// A page that was allocated and never written is zero throughout,
	// checksum field included, and is served.
	id, err := mem.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	if p, err := bp.Fetch(id); err != nil {
		t.Fatalf("never-written page refused: %v", err)
	} else {
		bp.Unpin(p, false)
	}
}
