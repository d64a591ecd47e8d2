package kv

import (
	"pipette/internal/extfs"
	"pipette/internal/index"
	"pipette/internal/vfs"
)

// BackendFile is one open segment handle. All I/O threads virtual time,
// exactly like the vfs layer underneath. It is the same interface the index
// engines use for their files — the value log and the index structures live
// on the same filesystem.
type BackendFile = index.File

// Backend is the filesystem the store keeps its value-log segments (and the
// index engines their arenas and runs) on. The production implementation is
// VFSBackend; tests may substitute fakes.
type Backend = index.Backend

// VFSBackend runs the store over a simulated filesystem. Files start
// unwritten, as a fallocated file's extents do: a page reads as zeros until
// the store writes it, on the block path and the fine path alike, and costs
// no device read. So an append that starts a fresh page fills it without
// reading flash first, and the recovery scan finds zeros past the log tail,
// which no record header matches. A file created on LBAs trimmed from a
// removed one starts as holes too, never with the old file's bytes.
type VFSBackend struct {
	V *vfs.VFS
}

// Create implements Backend.
func (b VFSBackend) Create(name string, size int64) (BackendFile, error) {
	return b.V.Create(name, size, extfs.CreateOpts{}, vfs.ReadWrite)
}

// OpenReader implements Backend.
func (b VFSBackend) OpenReader(name string, fine bool) (BackendFile, error) {
	flags := vfs.ReadOnly
	if fine {
		flags |= vfs.FineGrained
	}
	return b.V.Open(name, flags)
}

// OpenDirect implements Backend.
func (b VFSBackend) OpenDirect(name string) (BackendFile, error) {
	return b.V.Open(name, vfs.ReadOnly|vfs.Direct)
}

// OpenWriter implements Backend.
func (b VFSBackend) OpenWriter(name string) (BackendFile, error) {
	return b.V.Open(name, vfs.ReadWrite)
}

// Remove implements Backend.
func (b VFSBackend) Remove(name string) error { return b.V.Remove(name) }

// Files implements Backend.
func (b VFSBackend) Files() []string { return b.V.FS().Files() }

// PageSize implements Backend.
func (b VFSBackend) PageSize() int { return b.V.FS().PageSize() }
