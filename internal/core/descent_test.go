package core

import (
	"strings"
	"testing"

	"repro/internal/heap"
)

// strayFollow is testTrie with a bug: every InnerConsistent call also
// follows an entry the node does not have.
type strayFollow struct{ testTrie }

func (o strayFollow) InnerConsistent(in *InnerIn, out *InnerOut) {
	o.testTrie.InnerConsistent(in, out)
	out.Follow = append(out.Follow, InnerFollow{Entry: in.Labels.Len(), LevelAdd: 1})
}

// TestDeleteRejectsOutOfRangeFollow: an opclass that follows an entry out
// of range gets an error from the descent, not a panic, whatever the query.
// BulkDelete reads the file in page order and never asks the opclass where
// to go, so it still removes the row.
func TestDeleteRejectsOutOfRangeFollow(t *testing.T) {
	tr := newTestTree(t)
	for i, w := range []string{"a", "ab", "abc", "b", "ba", "bad", "c", "ca"} {
		if err := insertOne(tr, w, rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.oc = strayFollow{}
	_, scanErr := tr.Lookup(&Query{Op: "=", Arg: "abc"})
	if scanErr == nil || !strings.Contains(scanErr.Error(), "out of range") {
		t.Fatalf("Scan through the broken opclass: err = %v, want follow entry out of range", scanErr)
	}
	if _, err := tr.Lookup(&Query{Op: "#=", Arg: "a"}); err == nil || err.Error() != scanErr.Error() {
		t.Fatalf("prefix Scan through the broken opclass: err = %v, want %q", err, scanErr)
	}
	if err := tr.BulkDelete(func(r heap.RID) bool { return r == rid(2) }); err != nil {
		t.Fatalf("BulkDelete through the broken opclass: %v", err)
	}
	tr.oc = testTrie{}
	if rids, err := tr.Lookup(&Query{Op: "=", Arg: "abc"}); err != nil || len(rids) != 0 {
		t.Fatalf("abc after BulkDelete: %v, %v; want no row", rids, err)
	}
}
