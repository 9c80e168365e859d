//go:build !linux

package main

// fsType reports the filesystem type under dir; only Linux is probed.
func fsType(dir string) string { return "unknown" }
