package core

// NNCursorHeld reports what a cursor holds: queued entries, live arena
// slots, traversal-value bytes and seen RIDs. Package core_test uses it to
// check that a recycled cursor starts empty.
func NNCursorHeld(c *NNCursor) (queued, entries, reconBytes, seen int) {
	return len(c.pq), len(c.ents), len(c.recon), len(c.seen)
}
