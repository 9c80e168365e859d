package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// memfdCreate is the memfd_create system call number per architecture;
// the syscall package does not export it.
var memfdCreate = map[string]uintptr{
	"amd64": 319, "arm64": 279, "riscv64": 279, "386": 356,
	"arm": 385, "ppc64le": 360, "s390x": 350,
}

// memFile creates an anonymous tmpfs-backed file. It lives only as long
// as the process holds it, so the data never touches a filesystem, and
// it is addressable by path through /proc/self/fd.
func memFile(name string) (*os.File, string, error) {
	trap, ok := memfdCreate[runtime.GOARCH]
	if !ok {
		return nil, "", fmt.Errorf("memfd_create: unknown on %s", runtime.GOARCH)
	}
	p, err := syscall.BytePtrFromString(name)
	if err != nil {
		return nil, "", err
	}
	const mfdCloexec = 1
	fd, _, errno := syscall.Syscall(trap, uintptr(unsafe.Pointer(p)), mfdCloexec, 0)
	if errno != 0 {
		return nil, "", fmt.Errorf("memfd_create: %w", errno)
	}
	return os.NewFile(fd, name), fmt.Sprintf("/proc/self/fd/%d", fd), nil
}
