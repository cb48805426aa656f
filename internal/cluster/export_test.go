package cluster

import "repro/internal/fleet"

// Fetch is fetch, for the tests that drive it against a stub peer.
func (n *Node) Fetch(from int, gen uint64, ident string) error { return n.fetch(from, gen, ident) }

// SetArtifactCap lowers the fetched-artifact cap so a test can cross it
// without a 128 MiB body.
func (n *Node) SetArtifactCap(v int64) { n.artifactCap = v }

// Core is the node's serving core, for a test that reads what it serves.
func (n *Node) Core() *fleet.Monitor { return n.core }
