package cluster

import "testing"

// FailoverEntries and FailoverLen let the external tests check the
// failover table's bound, MaxBodyBytes the submit body cap and
// MaxEntryBytes the replicated entry cap.
const (
	FailoverEntries = failoverEntries
	MaxBodyBytes    = maxBodyBytes
	MaxEntryBytes   = maxEntryBytes
)

// FailoverLen reports how many job IDs n's failover table holds.
func (n *Node) FailoverLen() int {
	n.failover.mu.Lock()
	defer n.failover.mu.Unlock()
	return len(n.failover.entries)
}

// TestJobNode: the node name is everything between "job-" and the last
// "-", whatever the name holds, and any other shape is rejected.
func TestJobNode(t *testing.T) {
	for _, name := range []string{"127.0.0.1:8350", "[::1]:8080", "node-a", "n0"} {
		for _, id := range []string{"job-" + name + "-1", "job-" + name + "-4096"} {
			if got, ok := jobNode(id); !ok || got != name {
				t.Errorf("jobNode(%q) = %q, %v; want %q, true", id, got, ok, name)
			}
		}
	}
	for _, id := range []string{"job-", "job-n0-", "job-n0-x1", "batch-n0-3", "job-7", "", "job--1", "job-n0-+1"} {
		if got, ok := jobNode(id); ok {
			t.Errorf("jobNode(%q) = %q, true; want a rejection", id, got)
		}
	}
}
