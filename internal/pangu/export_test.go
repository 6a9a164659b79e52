package pangu

// This file holds per-machine usage and file deletion: exported for this package's tests, which read
// them, and called by no shipped code.

// UsageMB reports the bytes stored on one machine (0 for a machine outside
// the topology).
func (fs *FS) UsageMB(machine int32) int64 {
	if machine < 0 || int(machine) >= len(fs.usagePerMac) {
		return 0
	}
	return fs.usagePerMac[machine]
}

// Delete removes a file and releases its storage accounting.
func (fs *FS) Delete(name string) {
	f, ok := fs.files[name]
	if !ok {
		return
	}
	for _, c := range f.Chunks {
		for _, m := range c.Replicas {
			fs.usagePerMac[m] -= c.SizeMB
		}
	}
	delete(fs.files, name)
}
