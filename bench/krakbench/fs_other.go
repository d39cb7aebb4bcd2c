//go:build !linux

package main

// filesystemType is only known on Linux.
func filesystemType(string) string { return "unknown" }
