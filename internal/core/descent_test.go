package core

import (
	"strings"
	"testing"
)

// strayFollow is testTrie with a bug: every InnerConsistent call also
// follows an entry the node does not have.
type strayFollow struct{ testTrie }

func (o strayFollow) InnerConsistent(in *InnerIn, out *InnerOut) {
	o.testTrie.InnerConsistent(in, out)
	out.Follow = append(out.Follow, InnerFollow{Entry: in.Labels.Len(), LevelAdd: 1})
}

// TestDeleteRejectsOutOfRangeFollow: Scan and Delete walk the tree with
// the same descent, so an opclass that follows an entry out of range
// gets the same error from both — Delete used to index past the node's
// entries and panic.
func TestDeleteRejectsOutOfRangeFollow(t *testing.T) {
	tr := newTestTree(t)
	for i, w := range []string{"a", "ab", "abc", "b", "ba", "bad", "c", "ca"} {
		if err := tr.Insert(w, rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.oc = strayFollow{}
	_, scanErr := tr.Lookup(&Query{Op: "=", Arg: "abc"})
	if scanErr == nil || !strings.Contains(scanErr.Error(), "out of range") {
		t.Fatalf("Scan through the broken opclass: err = %v, want follow entry out of range", scanErr)
	}
	n, delErr := tr.Delete("abc", rid(2))
	if delErr == nil || delErr.Error() != scanErr.Error() || n != 0 {
		t.Fatalf("Delete through the broken opclass: removed %d, err = %v; want 0 and Scan's error %q", n, delErr, scanErr)
	}
}
