package pangu

// This file holds per-machine usage and replica lookups: exported for this package's tests, which read
// them, and called by no shipped code.

// UsageMB reports the bytes stored on one machine (0 for a machine outside
// the topology).
func (fs *FS) UsageMB(machine int32) int64 {
	if machine < 0 || int(machine) >= len(fs.usagePerMac) {
		return 0
	}
	return fs.usagePerMac[machine]
}

// ChunkLocations returns the replica machines of chunk idx of file name.
func (fs *FS) ChunkLocations(name string, idx int) []int32 {
	f, ok := fs.files[name]
	if !ok || idx < 0 || idx >= len(f.Chunks) {
		return nil
	}
	return f.Chunks[idx].Replicas
}
